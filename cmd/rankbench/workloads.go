package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rankfair"
	"rankfair/internal/service"
	"rankfair/internal/stream"
)

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []struct {
	name string
	run  func(*env) error
}{
	{"search", (*env).search},
	{"cold", (*env).cold},
	{"append", (*env).appendLoad},
	{"restart", (*env).restart},
}

var measures = []string{rankfair.MeasureGlobal, rankfair.MeasureProp, rankfair.MeasureExposure}

// sample is one served report kept for checking after the timed phase.
type sample struct {
	src     *source
	csv     []byte // the CSV the report was computed over
	params  rankfair.AuditParams
	report  []byte
	version int // append: the generation audited
}

// search: two closed-loop clients audit the paper-sized datasets with
// warm analysts, every request a result-cache miss, so the lattice search
// does almost all the work. compas routes its intersections to bitmaps,
// student and german to slices.
func (e *env) search() error {
	var srcs []*source
	for _, ds := range []struct {
		name string
		rows int
	}{{"student", 395}, {"german", 1000}, {"compas", 6889}} {
		src, err := generate(ds.name, e.rows(ds.rows), dataSeed)
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
	}
	// Prop and exposure on every dataset, plus global on student, the
	// largest global report. Global audits of german and compas would be
	// further light classes: with five light classes out of nine the median
	// fell among light audits slowed by whichever heavy audit shared the
	// CPU, and moved by 20% between seeds. With seven classes it sits in
	// the middle of student exposure.
	type class struct {
		src int
		p   rankfair.AuditParams
	}
	classes := []class{{0, auditParams(rankfair.MeasureGlobal, defMinSize)}}
	for i := range srcs {
		for _, m := range measures[1:] {
			classes = append(classes, class{i, auditParams(m, defMinSize)})
		}
	}

	ctx := context.Background()
	c := newClient(e.spans)
	ids := make([]string, len(srcs))
	d, err := e.setUp(func(int) (*daemon, error) {
		d, err := startDaemon(daemonConfig("", nil))
		if err != nil {
			return nil, err
		}
		c.attach(d)
		for i, src := range srcs {
			info, err := c.upload(ctx, src, src.csv)
			if err != nil {
				return d, err
			}
			if err := c.warm(ctx, info, src.ranker); err != nil {
				return d, err
			}
			ids[i] = info.ID
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer e.stop(d)

	before := cacheStats(d.svc)
	misses := func() float64 { return float64(d.svc.Cache().Stats().Misses) }
	missesBefore := misses()
	order := newRounds(e.rand("order"), len(classes))
	target := e.rand("sample").Intn(2) // the round whose reports are checked
	var mu sync.Mutex
	kept := make(map[int]sample)
	var submitted atomic.Int64
	e.closedLoop(2, func(i int) {
		slot, round := order.slot(i)
		cl := classes[slot]
		src := srcs[cl.src]
		p := variant(cl.p, i+1)
		octx, id := e.spans.op(ctx, i, "audit")
		e.attempt()
		t0 := time.Now()
		r, err := c.audit(octx, ids[cl.src], src.ranker, p)
		lat := time.Since(t0)
		e.spans.finish(id)
		if r.view.ID != "" {
			submitted.Add(1)
		}
		if err == nil && r.view.CacheHit {
			err = fmt.Errorf("audit %s was served from the cache", r.view.ID)
		}
		if err != nil {
			e.fail("search op %d: %v", i, err)
			return
		}
		e.rec.ms("op_ms", lat)
		e.recordAudit(octx, c, r, lat)
		if round == target {
			mu.Lock()
			kept[slot] = sample{src: src, csv: src.csv, params: p, report: r.report}
			mu.Unlock()
		}
	})
	e.cacheRatios(d.svc, before)

	if got, want := misses()-missesBefore, float64(submitted.Load()); got != want {
		e.fail("search: %v lattice searches for %v audits", got, want)
	}
	e.checkReports(kept)
	for _, src := range srcs {
		in := replayInput{src: src}
		for _, s := range kept {
			if s.src == src {
				in.params = append(in.params, s.params)
			}
		}
		e.replay = append(e.replay, in)
	}
	return nil
}

// checkReports recomputes each kept report in process, two at a time, and
// counts every mismatch as a failure.
func (e *env) checkReports(kept map[int]sample) {
	keys := make([]int, 0, len(kept))
	for k := range kept {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	work := make(chan sample)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				want, err := libraryReport(s.csv, s.src.ranker, s.params)
				if err == nil {
					err = sameReport(s.report, want)
				}
				if err != nil {
					e.fail("%s %s report: %v", s.src.name, s.params.Measure, err)
				}
			}
		}()
	}
	for _, k := range keys {
		work <- kept[k]
	}
	close(work)
	wg.Wait()
}

// cold: one closed-loop client uploads a dataset no cache has seen,
// audits it once with a light search, fetches the report and deletes the
// dataset, so decode, rank, index build and serialization dominate. Each
// upload is a pre-generated CSV plus one duplicated row chosen by the op,
// which gives every op distinct content: no cache can serve it.
func (e *env) cold() error {
	// German is dealt twice per round: rounds of five ops carry seven
	// audits, and odd counts keep both medians inside one class.
	kinds := []struct {
		name string
		rows int
	}{{"student", 395}, {"german", 1000}, {"german", 1000}, {"compas", 6889}, {"compas", 20000}}
	const realizations = 2
	pools := make([][]*source, len(kinds))
	recs := make([][][][]byte, len(kinds))
	for k, kd := range kinds {
		for r := 0; r < realizations; r++ {
			src, err := generate(kd.name, e.rows(kd.rows), dataSeed+int64(r))
			if err != nil {
				return err
			}
			pools[k] = append(pools[k], src)
			recs[k] = append(recs[k], src.records())
		}
	}
	light := func(name string) []rankfair.AuditParams {
		ps := []rankfair.AuditParams{auditParams(rankfair.MeasureGlobal, defMinSize)}
		if name == "german" {
			ps = append(ps, auditParams(rankfair.MeasureProp, defMinSize))
		}
		return ps
	}
	// Op content is unique per (slot, round): the realization alternates
	// by round and the duplicated row advances with every op.
	opCSV := func(k, round int) (*source, []byte) {
		r := round % realizations
		src := pools[k][r]
		dup := recs[k][r][(round*len(kinds)+k)%len(recs[k][r])]
		return src, append(append([]byte(nil), src.csv...), dup...)
	}

	ctx := context.Background()
	c := newClient(e.spans)
	// Set-up runs one cold op per kind on the bare CSV, which no timed op
	// uploads, so it pays the first-request costs (heap growth, connection
	// set-up) a timed op would otherwise carry.
	d, err := e.setUp(func(int) (*daemon, error) {
		d, err := startDaemon(daemonConfig("", nil))
		if err != nil {
			return nil, err
		}
		c.attach(d)
		for _, pool := range pools {
			src := pool[0]
			info, err := c.upload(ctx, src, src.csv)
			if err != nil {
				return d, err
			}
			for _, p := range light(src.name) {
				if _, err := c.audit(ctx, info.ID, src.ranker, p); err != nil {
					return d, err
				}
			}
			if err := c.deleteDataset(ctx, info.ID); err != nil {
				return d, err
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer e.stop(d)

	before := cacheStats(d.svc)
	order := newRounds(e.rand("order"), len(kinds))
	target := e.rand("sample").Intn(2)
	kept := make(map[int]sample)
	e.closedLoop(1, func(i int) {
		slot, round := order.slot(i)
		src, csv := opCSV(slot, round)
		octx, id := e.spans.op(ctx, i, "cold")
		defer e.spans.finish(id)
		e.attempt()
		t0 := time.Now()
		info, err := c.upload(octx, src, csv)
		if err != nil {
			e.fail("cold op %d upload: %v", i, err)
			return
		}
		e.rec.ms("upload_ms", time.Since(t0))
		for j, p := range light(src.name) {
			t1 := time.Now()
			r, err := c.audit(octx, info.ID, src.ranker, p)
			lat := time.Since(t1)
			if err == nil && r.view.CacheHit {
				err = fmt.Errorf("audit %s was served from the cache", r.view.ID)
			}
			if err != nil {
				e.fail("cold op %d audit: %v", i, err)
				return
			}
			if j == 0 {
				e.rec.ms("first_audit_ms", lat)
			}
			e.recordAudit(octx, c, r, lat)
			if round == target {
				kept[2*slot+j] = sample{src: src, csv: csv, params: p, report: r.report}
			}
		}
		if err := c.deleteDataset(octx, info.ID); err != nil {
			e.fail("cold op %d delete: %v", i, err)
			return
		}
		e.rec.ms("op_ms", time.Since(t0))
	})
	e.cacheRatios(d.svc, before)

	// Check each kept report against the one-shot library path
	// cmd/biasdetect takes: ReadCSV, New, Detect, WriteJSON.
	for _, k := range sortedKeys(kept) {
		s := kept[k]
		t0 := time.Now()
		raw, err := oneShot(s.csv, s.src.ranker, s.params)
		e.rec.ms("oneshot_ms", time.Since(t0))
		if err == nil {
			var want []byte
			if want, err = canonicalReport(raw); err == nil {
				err = sameReport(s.report, want)
			}
		}
		if err != nil {
			e.fail("cold %s %s report: %v", s.src.name, s.params.Measure, err)
		}
		e.replay = append(e.replay, replayInput{src: s.src.with(s.csv), params: []rankfair.AuditParams{s.params}})
	}
	return nil
}

func sortedKeys(m map[int]sample) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// oneShot runs the library path of cmd/biasdetect and returns its output.
func oneShot(csv []byte, spec service.RankerSpec, p rankfair.AuditParams) ([]byte, error) {
	a, err := newAnalyst(csv, spec)
	if err != nil {
		return nil, err
	}
	rep, err := a.DetectCtx(context.Background(), p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// Append workload shape. Batch sizes are dealt in rounds of ten: single
// rows are 60% of batches, so the median falls well inside them, and
// 64-row batches the slowest 20%, so p95 falls three quarters of the way
// into them and rests on a hundred of them rather than on a handful.
//
// The generator shares the daemon's two cores, and Go preempts a running
// goroutine only every 10 ms, so with both cores busy a send can wake that
// late; the run is invalid only when p99 lateness exceeds the mean gap
// between arrivals, past which the schedule's shape is lost.
const appendRate = 25 // batches per second
var appendSizes = []int{1, 1, 1, 1, 1, 1, 16, 16, 64, 64}

// arrivals returns n send times over [0, span): a Poisson process
// conditioned on n arrivals, whose times are n sorted uniform draws.
// Fixing n keeps the offered load identical across seeds.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// genState is what the load generator knows about one dataset's chain.
type genState struct {
	mu       sync.Mutex
	version  int      // last acknowledged generation
	inflight bool     // an append is between send and reply
	started  int      // appends sent
	acked    [][]byte // acknowledged batches, in order
}

func (g *genState) snapshot() (version, started int, inflight bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version, g.started, g.inflight
}

// appendLoad: an open loop of append batches at appendRate arrivals per
// second goes to german and compas while one closed-loop client audits
// their newest generations, every audit a cache miss. Writes beside reads:
// durable WAL and blob writes, incremental rank and index maintenance,
// the occasional rebuild and cache invalidation, all sharing the CPU with
// audits.
func (e *env) appendLoad() error {
	datasets := []struct {
		name string
		rows int
	}{{"german", 1000}, {"compas", 6889}}
	n := appendRate * e.o.seconds
	sched := arrivals(e.rand("arrivals"), n, time.Duration(e.o.seconds)*time.Second)
	// Every (dataset, size) pair is dealt once per round, and each batch
	// takes the next rows the generator produces for its dataset, so the
	// datasets grow through the same rows whatever the seed; the seed
	// decides when and in which batches they arrive. (Rows drawn at random
	// moved german prop audits by 30% between seeds.)
	deal := newRounds(e.rand("sizes"), len(datasets)*len(appendSizes))
	type batch struct {
		ds, rows int
		csv      []byte
	}
	batches := make([]batch, n)
	grow := make([]int, len(datasets))
	for j := range batches {
		slot, _ := deal.slot(j)
		b := batch{ds: slot / len(appendSizes), rows: appendSizes[slot%len(appendSizes)]}
		grow[b.ds] += b.rows
		batches[j] = b
	}
	var bases []*source
	for i, ds := range datasets {
		rows := e.rows(ds.rows)
		pool, err := generate(ds.name, rows+grow[i], dataSeed)
		if err != nil {
			return err
		}
		bases = append(bases, pool.prefix(rows))
		tail := pool.records()[rows:]
		for j := range batches {
			if b := &batches[j]; b.ds == i {
				for _, r := range tail[:b.rows] {
					b.csv = append(b.csv, r...)
				}
				tail = tail[b.rows:]
			}
		}
	}
	// Compas global audits are dealt twice a round of three, so the median
	// falls inside them: the cost of german prop audits climbs steeply as
	// german grows several times over, and a quantile taken among them
	// moved by a quarter from run to run.
	classes := []struct {
		ds int
		p  rankfair.AuditParams
	}{
		{1, auditParams(rankfair.MeasureGlobal, defMinSize)},
		{1, auditParams(rankfair.MeasureGlobal, defMinSize)},
		{0, auditParams(rankfair.MeasureProp, defMinSize)},
	}

	ctx := context.Background()
	c := newClient(e.spans)
	ids := make([]string, len(bases))
	d, err := e.setUp(func(k int) (*daemon, error) {
		d, err := startDaemon(daemonConfig(e.dataDir(k), e.spans))
		if err != nil {
			return nil, err
		}
		c.attach(d)
		for i, src := range bases {
			info, err := c.upload(ctx, src, src.csv)
			if err != nil {
				return d, err
			}
			if err := c.warm(ctx, info, src.ranker); err != nil {
				return d, err
			}
			ids[i] = info.ID
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer e.stop(d)

	states := make([]*genState, len(bases))
	for i := range states {
		states[i] = &genState{version: 1}
	}
	before := cacheStats(d.svc)
	countersBefore, err := c.counters(ctx)
	if err != nil {
		return err
	}
	t0 := time.Now()
	appendsDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(appendsDone)
		free := t0
		for j, b := range batches {
			due := t0.Add(sched[j])
			time.Sleep(time.Until(due))
			sent := time.Now()
			// The generator is late only when it was free to send: time spent
			// waiting for the previous reply is the daemon's, and counts in
			// this batch's latency instead.
			e.rec.ms("gen_late_ms", sent.Sub(maxTime(due, free)))
			st := states[b.ds]
			st.mu.Lock()
			st.inflight = true
			st.started++
			st.mu.Unlock()
			octx, id := e.spans.op(ctx, j, "append")
			e.attempt()
			resp, err := c.appendRows(octx, ids[b.ds], b.csv)
			free = time.Now()
			e.spans.finish(id)
			st.mu.Lock()
			st.inflight = false
			if err == nil {
				st.version = resp.Dataset.Version
				st.acked = append(st.acked, b.csv)
			}
			st.mu.Unlock()
			if err != nil {
				e.fail("append %d: %v", j, err)
				continue
			}
			e.rec.ms("op_ms", free.Sub(due))
		}
	}()
	order := newRounds(e.rand("order"), len(classes))
	target := e.rand("sample").Intn(4)
	kept := make(map[int]sample)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-appendsDone:
				return
			default:
			}
			slot, round := order.slot(i)
			cl := classes[slot]
			st := states[cl.ds]
			v0, s0, busy0 := st.snapshot()
			octx, id := e.spans.op(ctx, n+i, "audit")
			e.attempt()
			t1 := time.Now()
			p := variant(cl.p, i+1)
			r, err := c.audit(octx, ids[cl.ds], bases[cl.ds].ranker, p)
			lat := time.Since(t1)
			e.spans.finish(id)
			if err == nil && r.view.CacheHit {
				err = fmt.Errorf("audit %s was served from the cache", r.view.ID)
			}
			if err != nil {
				e.fail("append-side audit %d: %v", i, err)
				continue
			}
			e.recordAudit(octx, c, r, lat)
			// The audit bound its generation between the two snapshots; if no
			// append to the dataset started or was in flight meanwhile, that
			// generation is known.
			v1, s1, busy1 := st.snapshot()
			if _, done := kept[slot]; !done && round >= target && v0 == v1 && s0 == s1 && !busy0 && !busy1 {
				kept[slot] = sample{src: bases[cl.ds], params: p, report: r.report, version: v0}
			}
		}
	}()
	wg.Wait()
	e.elapsed = time.Since(t0)
	e.cacheRatios(d.svc, before)
	countersAfter, err := c.counters(ctx)
	if err != nil {
		return err
	}
	e.streamRatio(countersBefore, countersAfter)

	if late, limit := quantile(e.rec.get("gen_late_ms"), 0.99), msOf(time.Second/appendRate); late > limit {
		e.invalid = fmt.Sprintf("the generator ran %.2f ms late at p99 (limit %.0f ms, the mean gap between arrivals)", late, limit)
	}
	for i, st := range states {
		info, err := c.dataset(ctx, ids[i])
		if err != nil {
			e.fail("append: reading %s: %v", bases[i].name, err)
		} else if info.Version != 1+len(st.acked) {
			e.fail("append: %s is at version %d after %d acknowledged appends", bases[i].name, info.Version, len(st.acked))
		}
	}
	for k, s := range kept {
		s.csv = concat(s.src.csv, states[classes[k].ds].acked[:s.version-1])
		kept[k] = s
	}
	e.checkReports(kept)
	for i, src := range bases {
		in := replayInput{src: src.with(concat(src.csv, states[i].acked)), seed: src.csv, batches: states[i].acked}
		for k, cl := range classes {
			if cl.ds == i && (k == 0 || cl.p.Measure != classes[k-1].p.Measure || cl.ds != classes[k-1].ds) {
				in.params = append(in.params, cl.p)
			}
		}
		e.replay = append(e.replay, in)
	}
	return nil
}

// concat is the CSV of the generation a chain of batches leads to.
func concat(seed []byte, batches [][]byte) []byte {
	raw := seed
	for _, b := range batches {
		raw = stream.Concat(raw, b)
	}
	return raw
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// restart: one closed-loop client restarts a daemon whose store holds
// three datasets with append chains and 18 persisted reports, then asks
// for cached audits and dataset metadata. No search runs: store recovery,
// reloading the persisted cache, page-in (decode plus chain replay) and
// report encoding do all the work.
func (e *env) restart() error {
	const batches, batchRows = 4, 64
	var bases []*source
	var chains [][][]byte
	pick := e.rand("rows")
	for _, ds := range []struct {
		name string
		rows int
	}{{"student", 395}, {"german", 1000}, {"compas", 6889}} {
		n := e.rows(ds.rows)
		pool, err := generate(ds.name, n+batches*batchRows, dataSeed)
		if err != nil {
			return err
		}
		tail := pool.records()[n:]
		var chain [][]byte
		for b := 0; b < batches; b++ {
			var rows []byte
			for r := 0; r < batchRows; r++ {
				rows = append(rows, tail[pick.Intn(len(tail))]...)
			}
			chain = append(chain, rows)
		}
		bases = append(bases, pool.prefix(n))
		chains = append(chains, chain)
	}
	// τs 100 and 200 rather than the Section VI 50: the set-up computes
	// all 18 reports three times, and at τs 50 that alone would take 10 s
	// of every run.
	var params []rankfair.AuditParams
	for _, minSize := range []int{100, 200} {
		for _, m := range measures {
			params = append(params, auditParams(m, minSize))
		}
	}
	if e.o.small {
		params = params[:1]
	}

	ctx := context.Background()
	c := newClient(e.spans)
	ids := make([]string, len(bases))
	refs := make([][][]byte, len(bases)) // report bytes served before any restart
	var dir string
	d, err := e.setUp(func(k int) (*daemon, error) {
		dir = e.dataDir(k)
		d, err := startDaemon(daemonConfig(dir, e.spans))
		if err != nil {
			return nil, err
		}
		c.attach(d)
		for i, src := range bases {
			info, err := c.upload(ctx, src, src.csv)
			if err != nil {
				return d, err
			}
			for _, b := range chains[i] {
				if _, err := c.appendRows(ctx, info.ID, b); err != nil {
					return d, err
				}
			}
			ids[i] = info.ID
			refs[i] = make([][]byte, len(params))
		}
		// Compute and persist the reports from both client goroutines.
		var mu sync.Mutex
		var firstErr error
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= len(bases)*len(params) {
						return
					}
					i, p := j/len(params), j%len(params)
					r, err := c.audit(ctx, ids[i], bases[i].ranker, params[p])
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					refs[i][p] = r.report
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return d, firstErr
	})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			e.stop(d)
		}
	}()

	hit := func(ctx context.Context, ds, p int) (time.Duration, error) {
		t0 := time.Now()
		r, err := c.audit(ctx, ids[ds], bases[ds].ranker, params[p])
		lat := time.Since(t0)
		switch {
		case err != nil:
		case !r.view.CacheHit:
			err = fmt.Errorf("audit %s ran a search", r.view.ID)
		case !bytes.Equal(r.report, refs[ds][p]):
			err = fmt.Errorf("report of %s differs from the one served before the restarts", r.view.ID)
		default:
			e.recordAudit(ctx, c, r, lat)
		}
		return lat, err
	}
	order := newRounds(e.rand("order"), len(bases))
	// The five hits of a cycle take their params from a dealer of the six,
	// so report sizes are spread evenly over the run whatever the seed.
	choose := newRounds(e.rand("params"), len(params))
	var results, analysts service.CacheStats // summed over the cycles' daemons
	e.closedLoop(1, func(i int) {
		a, _ := order.slot(i)
		b := (a + 1) % len(bases)
		ps := make([]int, 5)
		for j := range ps {
			ps[j], _ = choose.slot(5*i + j)
		}
		if d != nil {
			e.stop(d)
			d = nil
		}
		octx, id := e.spans.op(ctx, i, "cycle")
		defer e.spans.finish(id)
		e.attempt()
		t0 := time.Now()
		rctx, rid := e.spans.start(octx, "restart")
		nd, err := startDaemon(daemonConfig(dir, e.spans))
		if err == nil {
			d = nd
			c.attach(d)
			err = c.healthz(rctx)
		}
		e.spans.finish(rid)
		if err != nil {
			e.fail("restart op %d: %v", i, err)
			return
		}
		e.rec.ms("restart_ms", time.Since(t0))
		lat, err := hit(octx, a, ps[0])
		if err != nil {
			e.fail("restart op %d first hit: %v", i, err)
			return
		}
		e.rec.ms("first_hit_ms", lat)
		t1 := time.Now()
		info, err := c.dataset(octx, ids[b])
		if err == nil && info.Version != 1+batches {
			err = fmt.Errorf("%s is at version %d, want %d", bases[b].name, info.Version, 1+batches)
		}
		if err != nil {
			e.fail("restart op %d first get: %v", i, err)
			return
		}
		e.rec.ms("first_get_ms", time.Since(t1))
		for h, p := range ps[1:] {
			ds := a
			if h%2 == 1 {
				ds = b
			}
			lat, err := hit(octx, ds, p)
			if err != nil {
				e.fail("restart op %d hit: %v", i, err)
				return
			}
			e.rec.ms("hit_ms", lat)
		}
		e.rec.ms("op_ms", time.Since(t0))
		results, analysts = addStats(results, d.svc.Cache().Stats()), addStats(analysts, d.svc.AnalystCacheStats())
		e.attachLoad(octx, c, ids[a])
		e.attachLoad(octx, c, ids[b])
		m, err := c.counters(octx)
		if err == nil && m["rankfaird_store_replay_rebuilds_total"] != 0 {
			err = fmt.Errorf("%v generations rebuilt on page-in", m["rankfaird_store_replay_rebuilds_total"])
		}
		if err != nil {
			e.fail("restart op %d: %v", i, err)
		}
	})
	e.live["service.result_cache_hit_ratio"] = hitRatio(results)
	e.live["service.analyst_cache_hit_ratio"] = hitRatio(analysts)
	for i, src := range bases {
		e.replay = append(e.replay, replayInput{src: src.with(concat(src.csv, chains[i])), seed: src.csv, batches: chains[i], params: params[len(params)/2:]})
	}
	return nil
}

func addStats(a, b service.CacheStats) service.CacheStats {
	a.Hits += b.Hits
	a.Shared += b.Shared
	a.Misses += b.Misses
	return a
}
