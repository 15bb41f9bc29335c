package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rankfair"
	"rankfair/internal/fault"
	"rankfair/internal/obs"
	"rankfair/internal/store"
)

// Config sizes the service's pools and caches. The zero value selects
// defaults suitable for an interactive daemon.
type Config struct {
	// Workers is the audit worker pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending-job queue; <= 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache; <= 0 means 128.
	CacheEntries int
	// MaxDatasets bounds the registry; <= 0 means 64.
	MaxDatasets int
	// MaxUploadBytes bounds one CSV upload; <= 0 means 32 MiB.
	MaxUploadBytes int64
	// AuditWorkers is the per-audit lattice fan-out substituted when a
	// request leaves params.workers at 0; <= 0 means 1 (serial). It is
	// independent of Workers, which sizes the pool of concurrent audits.
	AuditWorkers int
	// AnalystCacheEntries bounds the built-Analyst cache, keyed by
	// (dataset content hash, ranker key): a hit skips re-ranking the
	// dataset and reuses the rank-indexed counting engine hanging off the
	// analyst, so cache-miss audits sharing a ranker pay only the lattice
	// search. 0 means 32; negative disables the cache (every request
	// builds a fresh analyst — the pre-reuse behavior, kept for
	// benchmarking true cold audits).
	AnalystCacheEntries int
	// StreamRebuildFraction is the append cost model's cut-over: a batch
	// of b rows against an n-row dataset takes the incremental path
	// (ranking merge-insert, copy-on-write posting maintenance, warm
	// analyst promotion) when b < fraction·n, and the full-rebuild path
	// otherwise. 0 selects stream.DefaultRebuildFraction; negative
	// disables the incremental path entirely (every append rebuilds).
	StreamRebuildFraction float64
	// Logger receives structured request and job logs (requests and job
	// completions at debug level, slow audits at warn). Nil selects
	// slog.Default(), whose default info level keeps the routine records
	// quiet.
	Logger *slog.Logger
	// SlowAudit is the warn-level threshold for audit run time; a job that
	// runs at least this long logs its full span tree. 0 disables slow
	// logging.
	SlowAudit time.Duration
	// TraceEntries bounds the finished-trace ring behind
	// GET /v1/audits/{id}/trace; <= 0 means 256.
	TraceEntries int
	// DataDir roots the durable content-addressed store. Empty keeps the
	// service fully in-memory (the pre-PR-7 behavior); set, every accepted
	// upload and append is made durable before it is acknowledged, and a
	// restarted service pages datasets back in by replaying their
	// persisted append chains through the incremental ingestion path.
	DataDir string
	// PersistCache additionally persists every computed audit result under
	// its (dataset hash | ranker | params) cache key and registers the set
	// on boot, so repeated audits survive restarts without re-searching;
	// each result's bytes are read from the store on its first hit.
	// Ignored when DataDir is empty.
	PersistCache bool
	// AuditDeadline is the default per-audit time budget applied when a
	// request carries none (no deadline_ms field, no X-Deadline-Ms
	// header). 0 means unbounded.
	AuditDeadline time.Duration
	// MaxDeadline clamps every audit budget, requested or default; 0
	// means 5 minutes.
	MaxDeadline time.Duration
	// QueueWaitBudget sheds jobs without an explicit deadline whose queue
	// wait exceeds it (CoDel-style admission at the worker pool): a job
	// that waited this long is served a fast 503-shaped failure instead
	// of burning a worker on an answer nobody is still polling for.
	// 0 disables queue-wait shedding.
	QueueWaitBudget time.Duration
	// MaxInflight caps concurrently served HTTP requests. Heavier request
	// classes shed earlier: audits at 3/4 of the cap, appends at 7/8,
	// reads at the full cap; /healthz and /metrics are exempt. 0 means
	// 256; negative disables admission control.
	MaxInflight int
	// StoreRetries bounds in-place retries of transient durable-store
	// errors (attempts beyond the first). 0 means 2; negative disables.
	StoreRetries int
	// StoreBackoff is the base of the jittered exponential backoff
	// between store retries; 0 means 5ms.
	StoreBackoff time.Duration
	// BreakerThreshold is the consecutive-infra-failure count that opens
	// the store circuit breaker. 0 means 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe write; 0 means 5s.
	BreakerCooldown time.Duration
	// StoreFS overrides the durable store's filesystem seam — the
	// fault-injection hook behind -fault-store. Nil means the real OS.
	StoreFS fault.FS
	// OTLPEndpoint, when set, ships finished audit span trees and
	// periodic metric snapshots to an OTLP/HTTP collector at
	// <endpoint>/v1/traces and /v1/metrics. Export is strictly
	// best-effort: the enqueue is non-blocking and drops (counted by
	// rankfaird_otlp_dropped_total) rather than ever stalling an audit.
	// Empty disables export entirely.
	OTLPEndpoint string
	// OTLPInterval is the metric snapshot export period; 0 means 15s.
	OTLPInterval time.Duration
	// OTLPQueue bounds the exporter's pending-trace queue; 0 means 256.
	OTLPQueue int
	// AuditLog, when set, receives one wide-event record per terminal
	// audit (correlation IDs, dataset coordinates, phase durations,
	// search stats, outcome) independent of Logger's level filtering.
	AuditLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.AuditWorkers <= 0 {
		c.AuditWorkers = 1
	}
	// Clamp rather than error: the substituted default bypasses the
	// request-level Validate (which ran with workers=0), so an oversized
	// operator setting would otherwise fail every audit at run time.
	if c.AuditWorkers > rankfair.MaxWorkers {
		c.AuditWorkers = rankfair.MaxWorkers
	}
	if c.AnalystCacheEntries == 0 {
		c.AnalystCacheEntries = 32
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.StoreRetries == 0 {
		c.StoreRetries = 2
	}
	if c.StoreBackoff <= 0 {
		c.StoreBackoff = 5 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.StoreFS == nil {
		c.StoreFS = fault.OS{}
	}
	return c
}

// Service is the audit engine behind cmd/rankfaird: a dataset registry, a
// job manager, and a result cache, plus request counters for /metrics.
type Service struct {
	cfg      Config
	registry *Registry
	cache    *Cache
	analysts *Cache // nil when Config.AnalystCacheEntries < 0
	jobs     *Manager
	obs      *obsState
	logger   *slog.Logger

	// store is the durable tier; nil when Config.DataDir is empty.
	// loads deduplicates concurrent page-ins of the same dataset.
	store  *store.Store
	loadMu sync.Mutex
	loads  map[string]*loadFlight

	// breaker gates durable-store writes (nil when disabled: every
	// breaker method is nil-safe). admission is the HTTP inflight cap
	// (nil when disabled).
	breaker   *breaker
	admission *admissionState

	// exporter ships traces and metric snapshots over OTLP/HTTP; nil
	// when Config.OTLPEndpoint is empty.
	exporter *obs.Exporter
}

// New builds a started service; callers must Shutdown it. The only error
// source is opening the durable store (Config.DataDir), so a fully
// in-memory configuration never fails.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxDatasets),
		cache:    NewCache(cfg.CacheEntries),
		jobs:     NewManager(cfg.Workers, cfg.QueueDepth),
		loads:    make(map[string]*loadFlight),
	}
	if cfg.AnalystCacheEntries > 0 {
		s.analysts = NewCache(cfg.AnalystCacheEntries)
		// Without this hook, analysts for registry-evicted datasets would
		// pin their materialized rows + counting index until the analyst
		// LRU pushed them out, defeating the MaxDatasets memory bound.
		// Result-cache entries survive by design (small JSON, validity
		// pinned by the content hash), analysts do not.
		s.registry.SetEvictHook(func(info DatasetInfo) {
			s.analysts.RemovePrefix(analystKeyPrefix(info.Hash))
		})
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	// The breaker must exist before newObsState: the breaker-state gauge
	// registered there reads it at scrape time.
	if cfg.BreakerThreshold > 0 {
		s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if cfg.MaxInflight > 0 {
		s.admission = newAdmissionState(cfg.MaxInflight)
	}
	s.jobs.SetQueueWaitBudget(cfg.QueueWaitBudget)
	s.obs = newObsState(s, cfg.TraceEntries)
	if s.breaker != nil {
		s.breaker.onTransition = func(to string) {
			s.obs.breakerTransitions.With(to).Inc()
			s.logger.Warn("store circuit breaker transition", "state", to)
		}
	}
	if cfg.OTLPEndpoint != "" {
		s.exporter = obs.NewExporter(obs.ExporterConfig{
			Endpoint:  cfg.OTLPEndpoint,
			Registry:  s.obs.reg,
			Interval:  cfg.OTLPInterval,
			QueueSize: cfg.OTLPQueue,
			Logger:    s.logger,
			Counters: obs.ExporterCounters{
				Dropped:    s.obs.otlpDropped,
				Retries:    s.obs.otlpRetries,
				Exports:    s.obs.otlpExports,
				Failures:   s.obs.otlpFailures,
				QueueDepth: s.obs.otlpQueueDepth,
			},
		})
	}
	observer := &JobObserver{
		QueueWait: s.obs.queueWait,
		Run:       s.obs.runLatency,
		Traces:    s.obs.traces,
		AuditLog:  cfg.AuditLog,
		Logger:    s.logger,
		SlowAudit: cfg.SlowAudit,
	}
	if s.exporter != nil {
		observer.Export = func(tr *obs.Trace) { s.exporter.EnqueueTrace(tr) }
	}
	s.jobs.SetObserver(observer)
	if cfg.DataDir != "" {
		st, err := store.OpenFS(cfg.DataDir, cfg.StoreFS)
		if err != nil {
			s.jobs.Shutdown(context.Background())
			return nil, err
		}
		s.store = st
		if cfg.PersistCache {
			s.loadPersistedResults()
		}
		s.logger.Info("durable store open",
			"dir", cfg.DataDir, "datasets", st.Len(), "persist_cache", cfg.PersistCache)
	}
	return s, nil
}

// Registry exposes the dataset registry.
func (s *Service) Registry() *Registry { return s.registry }

// Cache exposes the result cache.
func (s *Service) Cache() *Cache { return s.cache }

// Jobs exposes the job manager.
func (s *Service) Jobs() *Manager { return s.jobs }

// Shutdown cancels outstanding jobs, waits for workers to drain, and
// releases the durable store's manifest handle. Every store mutation is
// fsync'd at write time, so shutdown performs no flushing — an abrupt
// kill loses nothing that was acknowledged.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.jobs.Shutdown(ctx)
	if s.exporter != nil {
		// After jobs drain, so the final batch carries every trace the
		// terminal transitions enqueued.
		err = errors.Join(err, s.exporter.Close(ctx))
	}
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	return err
}

// RankerSpec is the wire description of the black-box ranker an audit
// binds to its dataset: either numeric sort keys or an explicit
// permutation. The zero value is invalid.
type RankerSpec struct {
	// Columns ranks lexicographically by numeric sort keys (rank.ByColumns).
	Columns []ColumnKeySpec `json:"columns,omitempty"`
	// Ranking supplies an externally produced permutation of row indices,
	// best first (rank.Fixed).
	Ranking []int `json:"ranking,omitempty"`
}

// ColumnKeySpec is one sort key of RankerSpec.Columns.
type ColumnKeySpec struct {
	Column     string `json:"column"`
	Descending bool   `json:"descending"`
}

// Build materializes the ranker.
func (r *RankerSpec) Build() (rankfair.Ranker, error) {
	switch {
	case len(r.Columns) > 0 && len(r.Ranking) > 0:
		return nil, fmt.Errorf("service: ranker: set columns or ranking, not both")
	case len(r.Columns) > 0:
		keys := make([]rankfair.ColumnKey, len(r.Columns))
		for i, c := range r.Columns {
			if c.Column == "" {
				return nil, fmt.Errorf("service: ranker: column %d has no name", i)
			}
			keys[i] = rankfair.ColumnKey{Column: c.Column, Descending: c.Descending}
		}
		return &rankfair.ByColumns{Keys: keys}, nil
	case len(r.Ranking) > 0:
		return &rankfair.Fixed{Perm: r.Ranking}, nil
	default:
		return nil, fmt.Errorf("service: ranker: need columns or ranking")
	}
}

// CacheKey renders the spec canonically for result-cache keys. Explicit
// permutations are content-hashed so the key stays short.
func (r *RankerSpec) CacheKey() string {
	var b strings.Builder
	if len(r.Ranking) > 0 {
		b.WriteString("perm:")
		raw := make([]byte, 0, len(r.Ranking)*4)
		for _, v := range r.Ranking {
			raw = strconv.AppendInt(raw, int64(v), 10)
			raw = append(raw, ',')
		}
		b.WriteString(HashCSV(raw)[:16])
		return b.String()
	}
	b.WriteString("cols:")
	for _, c := range r.Columns {
		// Length-prefix the name so column names containing the
		// delimiters cannot collide with a different key list.
		fmt.Fprintf(&b, "%d:%s:%t;", len(c.Column), c.Column, c.Descending)
	}
	return b.String()
}

// AuditRequest is the POST /v1/audits body.
type AuditRequest struct {
	// Dataset is the registry ID of an uploaded dataset.
	Dataset string `json:"dataset"`
	// Ranker binds the black-box ranking algorithm.
	Ranker RankerSpec `json:"ranker"`
	// Params selects the measure and its thresholds.
	Params rankfair.AuditParams `json:"params"`
	// DeadlineMS is the audit's time budget in milliseconds, measured
	// from submission (queue wait included). The X-Deadline-Ms request
	// header sets it when the body leaves it 0. Clamped to
	// Config.MaxDeadline; 0 falls back to Config.AuditDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SubmitAudit validates an audit request and queues it on the worker
// pool. Identical requests against identical data share one computation
// through the result cache.
func (s *Service) SubmitAudit(req AuditRequest) (JobView, error) {
	return s.SubmitAuditCtx(context.Background(), req)
}

// SubmitAuditCtx is SubmitAudit carrying the submitting request's
// context: the trace identity the HTTP layer parsed from traceparent (or
// derived from the request ID) rides into the job's metadata, so the
// exported root span joins the caller's distributed trace and the
// wide-event audit record carries the correlation IDs. The context is
// read for identity only — it does not bound the job, whose lifetime is
// governed by its deadline budget.
func (s *Service) SubmitAuditCtx(ctx context.Context, req AuditRequest) (JobView, error) {
	table, info, ok := s.getDataset(req.Dataset)
	if !ok {
		return JobView{}, &NotFoundError{Resource: "dataset", ID: req.Dataset}
	}
	if err := req.Params.Validate(); err != nil {
		return JobView{}, &BadRequestError{Err: err}
	}
	if req.Params.KMax > info.Rows {
		return JobView{}, &BadRequestError{Err: fmt.Errorf("kmax=%d exceeds dataset size %d", req.Params.KMax, info.Rows)}
	}
	ranker, err := req.Ranker.Build()
	if err != nil {
		return JobView{}, &BadRequestError{Err: err}
	}
	if req.DeadlineMS < 0 {
		return JobView{}, &BadRequestError{Err: fmt.Errorf("deadline_ms must be >= 0, got %d", req.DeadlineMS)}
	}
	budget := time.Duration(req.DeadlineMS) * time.Millisecond
	if budget == 0 {
		budget = s.cfg.AuditDeadline
	}
	if budget > s.cfg.MaxDeadline {
		budget = s.cfg.MaxDeadline
	}

	// The cache key ignores Workers (fan-out never changes results), so
	// audits differing only in worker count still share one computation.
	key := info.Hash + "|" + req.Ranker.CacheKey() + "|" + req.Params.CacheKey()
	params := req.Params
	if params.Workers == 0 {
		params.Workers = s.cfg.AuditWorkers
	}
	// The analyst key is (dataset content hash, ranker key): the built
	// analyst depends on nothing else, so cache-miss audits that share a
	// ranker skip re-ranking the dataset and reuse the rank-indexed
	// counting engine already hanging off the cached analyst.
	analystKey := analystCacheKey(info.Hash, &req.Ranker)
	run := func(ctx context.Context) (*AuditResult, bool, error) {
		for {
			val, hit, err := s.cache.Do(ctx, key, func() (any, error) {
				// Phase spans land on the computing job's trace; audits that
				// join this flight show a bare run span, which is accurate —
				// they did no phase work. Note the report itself stays free
				// of wall-clock fields: cached entries are shared across
				// requests and byte-compared against independently computed
				// reports (append-vs-fresh-upload equivalence), so timings
				// belong on the trace, not in the report.
				actx, sp := obs.StartSpan(ctx, "analyst")
				analyst, err := s.analystFor(actx, analystKey, table, ranker)
				sp.Finish()
				if err != nil {
					return nil, err
				}
				// The job's context flows into the lattice search, so a
				// canceled job stops mid-traversal instead of completing
				// a doomed audit and discarding it.
				_, sp = obs.StartSpan(ctx, "search")
				report, err := analyst.DetectCtx(ctx, params)
				sp.Finish()
				if err != nil {
					return nil, err
				}
				// The one encoding of this report: every hit, every report
				// GET and the persisted copy reuse these bytes.
				_, sp = obs.StartSpan(ctx, "serialize")
				res, err := encodeResult(report)
				sp.Finish()
				if err != nil {
					return nil, err
				}
				// Aggregate inside the compute function only: cache hits
				// re-serve the same search, and counting it again would
				// overstate the lattice work the daemon actually did.
				s.recordSearch(res.Summary.Stats)
				// Same placement for durability: only computed results are
				// persisted, under the same key, so a restarted daemon
				// re-serves them without re-searching.
				s.persistResult(key, res)
				return res, nil
			})
			if err != nil {
				// A canceled compute owner hands its error to every job
				// that joined its flight: a CanceledError from the lattice
				// search, or a plain context error when the owner was
				// canceled while waiting on the analyst-cache flight
				// inside its closure. If *this* job is still live, the
				// cancellation belonged to someone else: retry, electing
				// ourselves the new compute owner.
				var cerr *rankfair.CanceledError
				canceledShape := errors.As(err, &cerr) ||
					errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
				if canceledShape && ctx.Err() == nil {
					continue
				}
				return nil, false, err
			}
			res, err := s.cachedResult(ctx, val)
			if err != nil {
				// A persisted result whose blob fails verification or
				// predates the summary-line format: drop it and recompute.
				s.logger.Warn("store: dropping unreadable persisted audit result", "key", key, "err", err)
				s.cache.Remove(key, val)
				continue
			}
			return res, hit, nil
		}
	}
	id := traceIdentityFrom(ctx)
	view, err := s.jobs.Submit(req.Dataset, params, run, WithBudget(budget), WithMeta(JobMeta{
		RequestID:      id.RequestID,
		TraceID:        id.TraceID,
		ParentSpan:     id.ParentSpan,
		DatasetHash:    info.Hash,
		DatasetVersion: info.Version,
	}))
	if err != nil {
		return JobView{}, err
	}
	return view, nil
}

// RepairRequest is the POST /v1/repair body: a constrained top-k
// selection over one protected attribute (Analyst.RepairTopK).
type RepairRequest struct {
	Dataset string     `json:"dataset"`
	Ranker  RankerSpec `json:"ranker"`
	// Attr is the protected categorical attribute.
	Attr string `json:"attr"`
	// K is the selection size.
	K int `json:"k"`
	// Constraints maps the attribute's value labels to count bounds;
	// absent values are unconstrained.
	Constraints map[string]rankfair.FairTopKConstraint `json:"constraints"`
}

// RepairResponse is the repaired prefix, best first.
type RepairResponse struct {
	Dataset  string `json:"dataset"`
	Attr     string `json:"attr"`
	K        int    `json:"k"`
	Selected []int  `json:"selected"`
}

// Repair runs the constrained top-k selection synchronously (it is a
// greedy pass over the ranking, cheap next to a lattice search). ctx
// bounds any wait on an in-flight analyst build for the same
// (dataset, ranker).
func (s *Service) Repair(ctx context.Context, req RepairRequest) (*RepairResponse, error) {
	analyst, err := s.bindAnalyst(ctx, req.Dataset, req.Ranker)
	if err != nil {
		return nil, err
	}
	selected, err := analyst.RepairTopK(req.Attr, req.K, req.Constraints)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return &RepairResponse{Dataset: req.Dataset, Attr: req.Attr, K: req.K, Selected: selected}, nil
}

// ExplainRequest is the POST /v1/explain body: the Section V Shapley
// pipeline for one detected group.
type ExplainRequest struct {
	Dataset string     `json:"dataset"`
	Ranker  RankerSpec `json:"ranker"`
	// Group binds attributes to value labels, e.g. {"sex": "F"}.
	// Alternatively Key supplies a canonical pattern key from a report.
	Group map[string]string `json:"group,omitempty"`
	Key   string            `json:"key,omitempty"`
	// K is the prefix length the group was detected at.
	K int `json:"k"`
	// Options tunes the pipeline; the zero value uses library defaults.
	Options rankfair.ExplainOptions `json:"options"`
}

// ExplainResponse pairs the explanation with the rendered group.
type ExplainResponse struct {
	Dataset string `json:"dataset"`
	Group   string `json:"group"`
	K       int    `json:"k"`
	*rankfair.Explanation
}

// Explain runs the explanation pipeline synchronously; ctx bounds any
// wait on an in-flight analyst build.
func (s *Service) Explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, error) {
	analyst, err := s.bindAnalyst(ctx, req.Dataset, req.Ranker)
	if err != nil {
		return nil, err
	}
	var p rankfair.Pattern
	switch {
	case req.Key != "" && len(req.Group) > 0:
		return nil, &BadRequestError{Err: fmt.Errorf("set group or key, not both")}
	case req.Key != "":
		p, err = analyst.ParseGroupKey(req.Key)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
	case len(req.Group) > 0:
		p = analyst.EmptyPattern()
		for attr, label := range req.Group {
			p, err = analyst.Bind(p, attr, label)
			if err != nil {
				return nil, &BadRequestError{Err: err}
			}
		}
	default:
		return nil, &BadRequestError{Err: fmt.Errorf("need group or key")}
	}
	exp, err := analyst.Explain(p, req.K, req.Options)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return &ExplainResponse{
		Dataset:     req.Dataset,
		Group:       analyst.Format(p),
		K:           req.K,
		Explanation: exp,
	}, nil
}

// bindAnalyst resolves a dataset and builds (or reuses) an analyst over
// it; ctx (the caller's request context) bounds a wait on another
// request's in-flight build, so a disconnected client does not leave a
// handler goroutine blocked behind a slow build it no longer wants.
func (s *Service) bindAnalyst(ctx context.Context, datasetID string, spec RankerSpec) (*rankfair.Analyst, error) {
	table, info, ok := s.getDataset(datasetID)
	if !ok {
		return nil, &NotFoundError{Resource: "dataset", ID: datasetID}
	}
	ranker, err := spec.Build()
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	analyst, err := s.analystFor(ctx, analystCacheKey(info.Hash, &spec), table, ranker)
	if err != nil {
		// A canceled wait on an in-flight build is the caller hanging up,
		// not bad input — don't misclassify it as a 400.
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, &BadRequestError{Err: err}
	}
	return analyst, nil
}

// analystKeyPrefix is the analyst-cache key prefix covering every ranker
// over one dataset; the registry evict hook purges by it, so the key
// scheme must only ever change here and in analystCacheKey together.
func analystKeyPrefix(hash string) string { return hash + "|" }

// analystCacheKey addresses one built analyst: the dataset content hash
// plus the ranker's canonical key.
func analystCacheKey(hash string, spec *RankerSpec) string {
	return analystKeyPrefix(hash) + spec.CacheKey()
}

// analystEntry is what the analyst cache stores: the built analyst plus
// the ranker it was built with. Keeping the ranker is what enables the
// streaming append path to warm-promote a cached analyst to the next
// dataset generation (Analyst.Append needs the ranker to place the new
// rows) instead of merely invalidating it.
type analystEntry struct {
	analyst *rankfair.Analyst
	ranker  rankfair.Ranker
}

// analystFor returns the built analyst for (dataset hash, ranker key),
// going through the analyst cache when it is enabled. The analyst — and
// the counting index that builds lazily on it — is immutable, so sharing
// one instance across concurrent audits, repairs and explanations is safe.
// Cached analysts are admitted pre-warmed (Analyst.Warm builds the rank
// index inside the singleflight), so every audit they serve — including
// the admitting one — runs its lattice search in rank space over the
// posting lists with zero setup scans.
func (s *Service) analystFor(ctx context.Context, key string, table *rankfair.Dataset, ranker rankfair.Ranker) (*rankfair.Analyst, error) {
	if s.analysts == nil {
		return rankfair.New(table, ranker)
	}
	val, _, err := s.analysts.Do(ctx, key, func() (any, error) {
		_, sp := obs.StartSpan(ctx, "rank")
		a, err := rankfair.New(table, ranker)
		sp.Finish()
		if err != nil {
			return nil, err
		}
		_, sp = obs.StartSpan(ctx, "index")
		a.Warm()
		sp.Finish()
		return &analystEntry{analyst: a, ranker: ranker}, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*analystEntry).analyst, nil
}

// recordSearch folds one computed audit's search statistics into the
// fleet-level counters on /metrics. Called from the cache compute path
// only, so the aggregates count lattice work performed, not responses
// served.
func (s *Service) recordSearch(st *rankfair.SearchStatsJSON) {
	if st == nil || s.obs == nil {
		return
	}
	o := s.obs
	o.searchRuns.With(st.Strategy).Inc()
	o.searchExpanded.Add(st.NodesExpanded)
	o.searchPruned.With("size").Add(st.PrunedSize)
	o.searchPruned.With("bound").Add(st.PrunedBound)
	o.searchPruned.With("dominated").Add(st.PrunedDominated)
	o.searchIntersections.Add(st.PostingIntersections)
	o.searchCountOnly.Add(st.CountOnlyPasses)
	o.searchLazy.Add(st.LazyScatters)
}

// storeStats snapshots the durable store's counters; the zero value is
// returned when no store is configured, so the metric families scrape as
// constant zeros instead of being conditionally absent.
func (s *Service) storeStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// AnalystCacheStats snapshots the analyst-cache counters; the zero value
// is returned when the cache is disabled.
func (s *Service) AnalystCacheStats() CacheStats {
	if s.analysts == nil {
		return CacheStats{}
	}
	return s.analysts.Stats()
}

// NotFoundError marks a missing resource; handlers map it to 404.
type NotFoundError struct {
	Resource string
	ID       string
}

func (e *NotFoundError) Error() string { return fmt.Sprintf("no %s %q", e.Resource, e.ID) }

// BadRequestError marks an invalid request; handlers map it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// StorageError marks a durable-store failure on a write the service could
// not acknowledge without; handlers map it to 500 with code
// "storage_error" so clients can tell a retryable infrastructure fault
// from bad input.
type StorageError struct{ Err error }

func (e *StorageError) Error() string { return "storage: " + e.Err.Error() }
func (e *StorageError) Unwrap() error { return e.Err }
