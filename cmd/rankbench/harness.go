package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rankfair/internal/service"
)

// setupRuns is how many times each run sets its daemon up; setup_s is the
// median, so one slow start does not read as a regression.
const setupRuns = 3

// env is one benchmark run: its options, the samples it records and the
// failures it counts.
type env struct {
	o     options
	spans *tracer // nil unless --trace 1
	rec   *recorder
	dir   string // scratch space for data directories

	// mu guards the counters the op goroutines update.
	mu        sync.Mutex
	attempted int
	failures  []string
	audits    int // audits completed in the timed phase

	// Written by the workload's own goroutine only.
	elapsed time.Duration // length of the timed phase
	setups  []float64     // seconds per set-up
	live    map[string]metric
	replay  []replayInput
	invalid string // why the run's numbers cannot be trusted, if they cannot
}

func newEnv(o options, dir string) *env {
	e := &env{o: o, rec: newRecorder(), dir: dir, live: make(map[string]metric)}
	if o.trace {
		e.spans = &tracer{t0: time.Now()}
	}
	return e
}

// rand returns a generator seeded by the run seed and a purpose, so each
// stream of choices is reproducible on its own whatever the goroutine
// interleaving.
func (e *env) rand(purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.o.seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// rows scales a dataset size down for the smoke test.
func (e *env) rows(full int) int {
	if e.o.small {
		return max(200, full/10)
	}
	return full
}

func (e *env) attempt() {
	e.mu.Lock()
	e.attempted++
	e.mu.Unlock()
}

// fail counts one failed op or check.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// setUp builds the daemon setupRuns times from fresh state, timing each,
// and returns the last; the earlier ones are stopped. build gets the
// set-up's index, for naming its data directory.
func (e *env) setUp(build func(k int) (*daemon, error)) (*daemon, error) {
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		d, err = build(k)
		e.setups = append(e.setups, time.Since(t0).Seconds())
		if err != nil {
			if d != nil {
				_ = d.stop() // the set-up error is the one to report
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	runtime.GC()
	return d, nil
}

func (e *env) dataDir(k int) string { return filepath.Join(e.dir, fmt.Sprintf("data-%d", k)) }

// stop stops the run's daemon; a daemon that does not drain cleanly
// counts as a failure.
func (e *env) stop(d *daemon) {
	if err := d.stop(); err != nil {
		e.fail("stopping the daemon: %v", err)
	}
}

// closedLoop runs clients goroutines that each take the next op index and
// run it until the timed phase is over. An op in flight at the deadline
// completes and counts; the phase ends when the last one does.
func (e *env) closedLoop(clients int, op func(i int)) {
	t0 := time.Now()
	deadline := t0.Add(time.Duration(e.o.seconds) * time.Second)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	e.elapsed = time.Since(t0)
}

// recordAudit records one successful audit: its latency as the client saw
// it and its split across the daemon. Traced runs also fetch the daemon's
// span tree for it and hang it under the op.
func (e *env) recordAudit(ctx context.Context, c *client, r auditResult, latency time.Duration) {
	e.mu.Lock()
	e.audits++
	e.mu.Unlock()
	e.rec.ms("audit_ms", latency)
	e.rec.ms("report_ms", r.fetch)
	e.rec.add("job_run_ms", r.view.ElapsedMS)
	e.rec.add("overhead_ms", msOf(r.submit)-r.view.ElapsedMS)
	if e.spans == nil {
		return
	}
	tt, err := c.trace(ctx, r.view.ID)
	if err != nil {
		e.fail("trace of %s: %v", r.view.ID, err)
		return
	}
	e.spans.attach(ctx, tt)
	for _, s := range tt.Root.Children {
		if s.Name == "queue" {
			e.rec.add("queue_ms", s.DurationMS)
		}
	}
}

// attachLoad hangs a dataset's page-in span tree under the op.
func (e *env) attachLoad(ctx context.Context, c *client, id string) {
	if e.spans == nil {
		return
	}
	tt, err := c.trace(ctx, "load-"+id)
	if err != nil {
		e.fail("page-in trace of %s: %v", id, err)
		return
	}
	e.spans.attach(ctx, tt)
}

// cacheRatios records the timed phase's cache hit ratios from the
// service's counters before and after it.
func (e *env) cacheRatios(svc *service.Service, before [2]service.CacheStats) {
	since := func(a, b service.CacheStats) service.CacheStats {
		return service.CacheStats{Hits: a.Hits - b.Hits, Shared: a.Shared - b.Shared, Misses: a.Misses - b.Misses}
	}
	e.live["service.result_cache_hit_ratio"] = hitRatio(since(svc.Cache().Stats(), before[0]))
	e.live["service.analyst_cache_hit_ratio"] = hitRatio(since(svc.AnalystCacheStats(), before[1]))
}

// hitRatio is the share of cache lookups the cache answered.
func hitRatio(s service.CacheStats) metric {
	hits := s.Hits + s.Shared
	return metric{Value: ratio(float64(hits), float64(hits+s.Misses)), Unit: "ratio", Samples: int(hits + s.Misses)}
}

func cacheStats(svc *service.Service) [2]service.CacheStats {
	return [2]service.CacheStats{svc.Cache().Stats(), svc.AnalystCacheStats()}
}

// streamRatio records the share of the timed phase's appends the daemon
// applied incrementally, from its /metrics counters.
func (e *env) streamRatio(before, after map[string]float64) {
	const inc, all = "rankfaird_stream_incremental_total", "rankfaird_stream_appends_total"
	n := after[all] - before[all]
	e.live["stream.incremental_ratio"] = metric{Value: ratio(after[inc]-before[inc], n), Unit: "ratio", Samples: int(n)}
}

// endToEnd returns the metrics a client of the daemon sees.
func (e *env) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":      {Value: quantile(append([]float64(nil), e.setups...), 0.5), Unit: "s", Samples: len(e.setups)},
		"audits_per_s": {Value: ratio(float64(e.audits), e.elapsed.Seconds()), Unit: "1/s", Samples: e.audits},
		"audit_ms_p50": e.rec.q("audit_ms", 0.5, "ms"),
		"op_ms_p50":    e.rec.q("op_ms", 0.5, "ms"),
		"op_ms_p95":    e.rec.q("op_ms", 0.95, "ms"),
	}
}

// perLayer returns the live service metrics of a traced run merged with
// the replay's layer metrics.
func (e *env) perLayer() (map[string]metric, error) {
	out, err := replay(e.replay, e.dir)
	if err != nil {
		return nil, err
	}
	out["service.job_run_ms_p50"] = e.rec.q("job_run_ms", 0.5, "ms")
	out["service.overhead_ms_p50"] = e.rec.q("overhead_ms", 0.5, "ms")
	out["service.queue_ms_p50"] = e.rec.q("queue_ms", 0.5, "ms")
	out["service.report_get_ms_p50"] = e.rec.q("report_ms", 0.5, "ms")
	out["stream.incremental_ratio"] = metric{Unit: "ratio"} // no appends in the timed phase
	for k, v := range e.live {
		out[k] = v
	}
	return out, nil
}
