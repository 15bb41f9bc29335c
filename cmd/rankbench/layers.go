package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/fault"
	"rankfair/internal/obs"
	"rankfair/internal/store"
	"rankfair/internal/stream"
)

// span is one timed interval recorded by the benchmark, in milliseconds
// since the run started. Op is the index of the timed op it belongs to,
// -1 for none; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer records spans at the layer boundaries the benchmark can see: its
// own HTTP calls and restarts, every filesystem call of the durable store,
// and the daemon's span trees fetched after each op. Spans stay in memory
// until the run ends. A nil tracer records nothing, which is how untraced
// runs pay nothing for it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

type spanRef struct{ op, id int }

func (t *tracer) at(ts time.Time) float64 { return msOf(ts.Sub(t.t0)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// op opens the root span of timed op i.
func (t *tracer) op(ctx context.Context, i int, name string) (context.Context, int) {
	if t == nil {
		return ctx, 0
	}
	return t.start(context.WithValue(ctx, spanKey{}, spanRef{op: i}), name)
}

// start opens a span under the one ctx carries.
func (t *tracer) start(ctx context.Context, name string) (context.Context, int) {
	if t == nil {
		return ctx, 0
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		ref.op = -1
	}
	id := t.add(span{Parent: ref.id, Op: ref.op, Name: name, Start: t.at(time.Now()), End: -1})
	return context.WithValue(ctx, spanKey{}, spanRef{op: ref.op, id: id}), id
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a closed span with no parent; the filesystem wrapper uses it
// from inside the daemon, where no op context is available.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Op: -1, Name: name, Start: t.at(start), End: t.at(end)})
}

// attach adds a daemon span tree under the span ctx carries, prefixing its
// span names with "rankfaird.".
func (t *tracer) attach(ctx context.Context, tt obs.TraceTree) {
	if t == nil {
		return
	}
	origin, err := time.Parse(time.RFC3339Nano, tt.Start)
	if err != nil {
		return
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	var walk func(parent int, st obs.SpanTree)
	walk = func(parent int, st obs.SpanTree) {
		start := t.at(origin) + st.StartMS
		id := t.add(span{Parent: parent, Op: ref.op, Name: "rankfaird." + st.Name, Start: start, End: start + st.DurationMS})
		for _, c := range st.Children {
			walk(id, c)
		}
	}
	walk(ref.id, tt.Root)
}

// adopt parents each filesystem span under the one client span enclosing
// it, when exactly one does; a call made while two requests overlapped
// stays a root.
func (t *tracer) adopt() {
	for i := range t.spans {
		f := &t.spans[i]
		if f.Parent != 0 || !strings.HasPrefix(f.Name, "fs.") {
			continue
		}
		owner := 0
		for j := range t.spans {
			s := &t.spans[j]
			if s.Parent != 0 || s.Op < 0 || s.Start > f.Start || s.End < f.End {
				continue
			}
			if owner != 0 {
				owner = -1
				break
			}
			owner = s.ID
		}
		if owner > 0 {
			f.Parent, f.Op = owner, t.spans[owner-1].Op
		}
	}
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		covered, reach := 0.0, s.Start
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timingFS is the store's filesystem seam with a stopwatch on every call:
// one span per call, plus fsync latencies and the bytes written and read.
type timingFS struct {
	fs    fault.FS
	spans *tracer

	mu      sync.Mutex
	syncs   []float64 // ms per Sync
	written int64
	read    int64
}

func newTimingFS(spans *tracer) *timingFS { return &timingFS{fs: fault.OS{}, spans: spans} }

func (f *timingFS) call(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	f.spans.record("fs."+name, t0, time.Now())
	return err
}

func (f *timingFS) wrap(file fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.call("mkdir", func() error { return f.fs.MkdirAll(path, perm) })
}

func (f *timingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	var file fault.File
	err := f.call("create", func() (err error) { file, err = f.fs.CreateTemp(dir, pattern); return err })
	return f.wrap(file, err)
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	var file fault.File
	err := f.call("openfile", func() (err error) { file, err = f.fs.OpenFile(name, flag, perm); return err })
	return f.wrap(file, err)
}

func (f *timingFS) Open(name string) (fault.File, error) {
	var file fault.File
	err := f.call("open", func() (err error) { file, err = f.fs.Open(name); return err })
	return f.wrap(file, err)
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	return f.call("rename", func() error { return f.fs.Rename(oldpath, newpath) })
}

func (f *timingFS) Remove(name string) error {
	return f.call("remove", func() error { return f.fs.Remove(name) })
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	var raw []byte
	err := f.call("readfile", func() (err error) { raw, err = f.fs.ReadFile(name); return err })
	f.mu.Lock()
	f.read += int64(len(raw))
	f.mu.Unlock()
	return raw, err
}

func (f *timingFS) Stat(name string) (fs.FileInfo, error) {
	var fi fs.FileInfo
	err := f.call("stat", func() (err error) { fi, err = f.fs.Stat(name); return err })
	return fi, err
}

func (f *timingFS) Truncate(name string, size int64) error {
	return f.call("truncate", func() error { return f.fs.Truncate(name, size) })
}

type timedFile struct {
	fault.File
	fs *timingFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.call("write", func() (err error) { n, err = t.File.Write(p); return err })
	t.fs.mu.Lock()
	t.fs.written += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.fs.call("sync", t.File.Sync)
	t.fs.mu.Lock()
	t.fs.syncs = append(t.fs.syncs, msOf(time.Since(t0)))
	t.fs.mu.Unlock()
	return err
}

func (t *timedFile) Truncate(size int64) error {
	return t.fs.call("ftruncate", func() error { return t.File.Truncate(size) })
}

func (t *timedFile) Close() error { return t.fs.call("close", t.File.Close) }

// replayInput is one dataset's recorded inputs, replayed through each
// layer's public functions after the timed phase, with nothing else
// running: the CSV as audited, the audits made against it, and the append
// chain that built it. A workload that appended nothing replays its last
// replayTail rows as one batch, so every workload reports every layer.
type replayInput struct {
	src     *source
	seed    []byte   // the first generation's CSV; src.csv when nil
	batches [][]byte // headerless CSV batches after seed, in order
	params  []rankfair.AuditParams
}

const (
	replayReps = 3  // repetitions of each cheap step
	replayTail = 64 // rows split off as a batch when none was recorded
)

// chain returns the seed generation and the batches that follow it.
func (in *replayInput) chain() ([]byte, [][]byte) {
	if in.seed != nil {
		return in.seed, in.batches
	}
	recs := in.src.records()
	n := len(recs) - min(replayTail, len(recs)-1)
	var tail []byte
	for _, r := range recs[n:] {
		tail = append(tail, r...)
	}
	return in.src.prefix(n).csv, [][]byte{tail}
}

// replay times every layer on the recorded inputs and returns the
// per-layer metrics derived from it.
func replay(inputs []replayInput, dir string) (map[string]metric, error) {
	rec := newRecorder()
	for i, in := range inputs {
		reports, err := replayLibrary(rec, &in)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", in.src.name, err)
		}
		seed, batches := in.chain()
		if err := replayStream(rec, in.src, seed, batches); err != nil {
			return nil, fmt.Errorf("replaying %s appends: %w", in.src.name, err)
		}
		if err := replayStore(rec, filepath.Join(dir, fmt.Sprintf("replay-store-%d", i)), seed, batches, reports); err != nil {
			return nil, fmt.Errorf("replaying %s store: %w", in.src.name, err)
		}
	}
	groups, nodes := rec.sum("groups"), rec.sum("nodes")
	bitmap, slice := rec.sum("bitmap_passes"), rec.sum("slice_passes")
	n := len(rec.get("search"))
	return map[string]metric{
		"dataset.decode_ms_p50":      rec.q("decode", 0.5, "ms"),
		"dataset.decode_mb_s":        rec.q("decode_mb_s", 0.5, "MB/s"),
		"rank.rank_ms_p50":           rec.q("rank", 0.5, "ms"),
		"count.index_ms_p50":         rec.q("index", 0.5, "ms"),
		"count.index_mb":             rec.q("index_mb", 0.5, "MiB"),
		"core.search_ms_p50":         rec.q("search", 0.5, "ms"),
		"core.search_ms_p90":         rec.q("search", 0.9, "ms"),
		"core.nodes_expanded":        rec.q("nodes", 0.5, "count"),
		"core.posting_intersections": rec.q("intersections", 0.5, "count"),
		"core.groups_per_node":       {Value: ratio(groups, nodes), Unit: "ratio", Samples: n},
		"core.bitmap_pass_share":     {Value: ratio(bitmap, bitmap+slice), Unit: "ratio", Samples: n},
		"report.tojson_ms_p50":       rec.q("tojson", 0.5, "ms"),
		"report.encode_ms_p50":       rec.q("encode", 0.5, "ms"),
		"report.writejson_ms_p50":    rec.q("writejson", 0.5, "ms"),
		"report.kb_p50":              rec.q("kb", 0.5, "KiB"),
		"stream.parse_ms_p50":        rec.q("parse", 0.5, "ms"),
		"stream.extend_ms_p50":       rec.q("extend", 0.5, "ms"),
		"store.fsyncs_per_op":        rec.q("fsyncs_per_op", 0.5, "count"),
		"store.fsync_ms_p50":         rec.q("fsync", 0.5, "ms"),
		"store.write_amp":            rec.q("write_amp", 0.5, "ratio"),
		"store.open_ms_p50":          rec.q("open", 0.5, "ms"),
		"store.cache_load_ms_p50":    rec.q("cache_load", 0.5, "ms"),
		"store.page_in_ms_p50":       rec.q("page_in", 0.5, "ms"),
		"store.read_mb":              rec.q("read_mb", 0.5, "MB"),
	}, nil
}

// replayLibrary decodes, ranks, indexes, searches and serializes one
// dataset; it returns each report as the daemon persists it.
func replayLibrary(rec *recorder, in *replayInput) (map[string][]byte, error) {
	ranker, err := in.src.ranker.Build()
	if err != nil {
		return nil, err
	}
	var a *rankfair.Analyst
	for r := 0; r < replayReps; r++ {
		t0 := time.Now()
		table, err := rankfair.ReadCSV(bytes.NewReader(in.src.csv), rankfair.CSVOptions{})
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		rec.ms("decode", d)
		rec.add("decode_mb_s", float64(len(in.src.csv))/1e6/d.Seconds())
		t0 = time.Now()
		a, err = rankfair.New(table, ranker)
		if err != nil {
			return nil, err
		}
		rec.ms("rank", time.Since(t0))
		t0 = time.Now()
		a.Warm()
		rec.ms("index", time.Since(t0))
	}
	rec.add("index_mb", float64(a.IndexFootprint())/(1<<20))

	reports := make(map[string][]byte)
	for _, p := range in.params {
		p.Workers = 1 // what rankfaird substitutes by default
		t0 := time.Now()
		rep, err := a.DetectCtx(context.Background(), p)
		if err != nil {
			return nil, err
		}
		rec.ms("search", time.Since(t0))
		var rj *rankfair.ReportJSON
		for r := 0; r < replayReps; r++ {
			t0 = time.Now()
			rj = rep.ToJSON()
			rec.ms("tojson", time.Since(t0))
			t0 = time.Now()
			raw, err := json.MarshalIndent(rj, "", "  ")
			if err != nil {
				return nil, err
			}
			rec.ms("encode", time.Since(t0))
			rec.add("kb", float64(len(raw))/1024)
			t0 = time.Now()
			if err := rep.WriteJSON(io.Discard); err != nil {
				return nil, err
			}
			rec.ms("writejson", time.Since(t0))
		}
		if st := rj.Stats; st != nil {
			rec.add("nodes", float64(st.NodesExpanded))
			rec.add("intersections", float64(st.PostingIntersections))
			rec.add("bitmap_passes", float64(st.BitmapPasses))
			rec.add("slice_passes", float64(st.SlicePasses))
		}
		groups := 0
		for _, kg := range rj.Results {
			groups += len(kg.Groups)
		}
		rec.add("groups", float64(groups))
		raw, err := json.Marshal(rj)
		if err != nil {
			return nil, err
		}
		reports[in.src.name+"|"+p.CacheKey()] = raw
	}
	return reports, nil
}

// replayStream applies the batches to the seed generation the way a live
// append does: parse against the current table, extend the table, and
// extend the warm analyst.
func replayStream(rec *recorder, src *source, seed []byte, batches [][]byte) error {
	ranker, err := src.ranker.Build()
	if err != nil {
		return err
	}
	table, err := rankfair.ReadCSV(bytes.NewReader(seed), rankfair.CSVOptions{})
	if err != nil {
		return err
	}
	a, err := rankfair.New(table, ranker)
	if err != nil {
		return err
	}
	a.Warm()
	raw := seed
	for _, batch := range batches {
		t0 := time.Now()
		b, err := stream.ParseCSV(batch, table, 0)
		if err != nil {
			return err
		}
		rec.ms("parse", time.Since(t0))
		t0 = time.Now()
		raw = stream.Concat(raw, batch)
		if table, err = extend(table, raw, b); err != nil {
			return err
		}
		if a, err = a.Append(table, ranker); err != nil {
			return err
		}
		rec.ms("extend", time.Since(t0))
	}
	return nil
}

// extend applies a parsed batch to table, re-decoding the concatenated
// CSV (raw) when the batch changes the schema, as the daemon does.
func extend(table *rankfair.Dataset, raw []byte, b *stream.Batch) (*rankfair.Dataset, error) {
	next, err := table.AppendRows(b.Records)
	if errors.Is(err, dataset.ErrSchemaDrift) {
		return rankfair.ReadCSV(bytes.NewReader(raw), rankfair.CSVOptions{})
	}
	return next, err
}

// replayStore persists the chain and the reports into a fresh store, then
// reopens it and pages the dataset back in the way a restarted daemon does.
func replayStore(rec *recorder, dir string, seed []byte, batches [][]byte, reports map[string][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	w := newTimingFS(nil)
	st, err := store.OpenFS(dir, w)
	if err != nil {
		return err
	}
	const id = "ds"
	raw, payload := seed, int64(len(seed))
	head := store.HashBytes(raw)
	err = st.PutSeed(id, head, raw, nil)
	for _, b := range batches {
		if err != nil {
			break
		}
		raw = stream.Concat(raw, b)
		next := store.HashBytes(raw)
		err = st.PutAppend(id, next, head, b, nil)
		head, payload = next, payload+int64(len(b))
	}
	for key, val := range reports {
		if err != nil {
			break
		}
		err = st.PutCache(key, val)
		payload += int64(len(val))
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	puts := 1 + len(batches) + len(reports)
	rec.add("fsyncs_per_op", float64(len(w.syncs))/float64(puts))
	for _, ms := range w.syncs {
		rec.add("fsync", ms)
	}
	rec.add("write_amp", float64(w.written)/float64(payload))

	r := newTimingFS(nil)
	t0 := time.Now()
	st, err = store.OpenFS(dir, r)
	if err != nil {
		return err
	}
	defer st.Close()
	rec.ms("open", time.Since(t0))
	t0 = time.Now()
	for _, key := range st.CacheKeys() {
		val, err := st.CacheValue(key)
		if err != nil {
			return err
		}
		var rj rankfair.ReportJSON
		if err := json.Unmarshal(val, &rj); err != nil {
			return err
		}
	}
	rec.ms("cache_load", time.Since(t0))
	t0 = time.Now()
	gens, _ := st.Chain(id)
	blob, err := st.Blob(gens[0].Blob)
	if err != nil {
		return err
	}
	table, err := rankfair.ReadCSV(bytes.NewReader(blob), rankfair.CSVOptions{})
	if err != nil {
		return err
	}
	raw = blob
	for _, g := range gens[1:] {
		if blob, err = st.Blob(g.Blob); err != nil {
			return err
		}
		b, err := stream.ParseCSV(blob, table, 0)
		if err != nil {
			return err
		}
		raw = stream.Concat(raw, blob)
		if table, err = extend(table, raw, b); err != nil {
			return err
		}
	}
	rec.ms("page_in", time.Since(t0))
	rec.add("read_mb", float64(r.read)/1e6)
	return nil
}
