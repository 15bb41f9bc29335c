package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"rankfair"
	"rankfair/internal/obs"
)

// JobStatus is the lifecycle state of an audit job.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// ErrQueueFull is returned by Submit when the job queue is at capacity;
// HTTP handlers map it to 503 so clients can back off.
var ErrQueueFull = errors.New("service: job queue full")

// JobFunc is one unit of audit work. It returns the encoded report and
// whether the result came from the cache (directly or by joining an
// in-flight duplicate) rather than a fresh computation.
type JobFunc func(ctx context.Context) (*AuditResult, bool, error)

// Job is the manager's record of one submitted audit.
type Job struct {
	ID      string
	Dataset string
	Params  rankfair.AuditParams

	status   JobStatus
	err      string
	errCode  string
	cacheHit bool
	report   *AuditResult

	// budget is the job's end-to-end time bound (queue wait + run);
	// zero means unbounded.
	budget time.Duration

	// meta carries the submitting request's correlation identity and the
	// dataset coordinates for the wide-event audit log and trace export.
	meta JobMeta

	created  time.Time
	started  time.Time
	finished time.Time

	run      JobFunc
	runCtx   context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	doneOnce sync.Once
}

// finish closes the job's completion channel exactly once.
func (j *Job) finish() { j.doneOnce.Do(func() { close(j.done) }) }

// JobView is the JSON-safe snapshot of a job served by the audit API.
type JobView struct {
	ID      string               `json:"id"`
	Dataset string               `json:"dataset"`
	Params  rankfair.AuditParams `json:"params"`
	Status  JobStatus            `json:"status"`
	Error   string               `json:"error,omitempty"`
	// ErrorCode classifies a failed job beyond the message: "shed" (the
	// queue wait consumed the budget before the job ran) or
	// "deadline_exceeded" (the budget expired mid-run). Empty otherwise.
	ErrorCode string    `json:"error_code,omitempty"`
	CacheHit  bool      `json:"cache_hit"`
	Created   time.Time `json:"created"`
	// BudgetMS echoes the job's end-to-end time budget when one was set.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// ElapsedMS is the run time: queued jobs report 0, running jobs the
	// time since start, finished jobs the total duration.
	ElapsedMS float64 `json:"elapsed_ms"`
	// NodesExamined, FullSearches and TotalGroups surface the detection
	// work statistics once the job is done.
	NodesExamined int64 `json:"nodes_examined,omitempty"`
	FullSearches  int   `json:"full_searches,omitempty"`
	TotalGroups   int   `json:"total_groups,omitempty"`
}

// JobObserver is the manager's hook into the observability layer: queue
// and run latency histograms, the finished-trace ring, and structured
// logging with a slow-audit threshold. A nil observer (or any nil field)
// disables that part of the instrumentation.
type JobObserver struct {
	// QueueWait observes created→started, Run observes started→finished,
	// both in seconds, with the job's trace ID as the bucket exemplar.
	QueueWait *obs.Histogram
	Run       *obs.Histogram
	// Traces receives each finished job's span tree, keyed by job ID.
	Traces *obs.TraceStore
	// Export receives each finished trace after it lands in Traces — the
	// OTLP enqueue hook. It must not block: the exporter's queue send is
	// non-blocking by contract.
	Export func(*obs.Trace)
	// AuditLog, when set, receives one wide-event record per terminal
	// audit: correlation IDs, dataset coordinates, phase durations,
	// search statistics and the outcome code in a single greppable line.
	AuditLog *slog.Logger
	// Logger logs job completion at debug level; jobs that ran longer than
	// SlowAudit (> 0) log at warn level with the full span tree attached.
	Logger    *slog.Logger
	SlowAudit time.Duration
}

// JobMeta is the correlation identity a submission carries into the job:
// the originating request ID, the W3C trace identity to adopt (so the
// audit's exported spans stitch under the caller's trace), and the
// audited dataset's content coordinates for the wide-event log.
type JobMeta struct {
	RequestID      string
	TraceID        string
	ParentSpan     string
	DatasetHash    string
	DatasetVersion int
}

// SetObserver installs the observer; call before the first Submit.
func (m *Manager) SetObserver(ob *JobObserver) {
	m.mu.Lock()
	m.observer = ob
	m.mu.Unlock()
}

// ManagerStats snapshots the job counters for /metrics.
type ManagerStats struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Shed and DeadlineExceeded break down Failed: jobs shed at dequeue
	// because their queue wait consumed the budget (or exceeded the
	// manager's CoDel-style bound), and jobs whose budget expired mid-run.
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Queued           int   `json:"queued"`
	Running          int   `json:"running"`
}

// Manager runs audit jobs on a fixed pool of workers over a bounded
// queue. Submission is non-blocking: a full queue rejects immediately
// rather than stalling the HTTP handler.
type Manager struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	seq     int64
	queue   chan *Job
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	submitted, completed, failed, canceled int64
	shed, deadlineExceeded                 int64
	running                                int
	retain                                 int
	clock                                  func() time.Time
	observer                               *JobObserver

	// queueBudget is the CoDel-style queue-wait bound for jobs without
	// their own budget: a job that waited longer than this is shed at
	// dequeue instead of run (running it would only add late work to an
	// already-behind queue). Zero disables the bound.
	queueBudget time.Duration

	// beforeRun, when set, runs on the worker goroutine after dequeue and
	// before the shed/deadline checks — a fault-injection seam chaos tests
	// use to add deterministic queue latency.
	beforeRun func()
}

// defaultJobRetention bounds how many job records the manager keeps; the
// oldest *finished* jobs are pruned beyond it so the daemon's memory does
// not grow with its lifetime.
const defaultJobRetention = 1024

// NewManager starts workers goroutines consuming a queue of queueDepth
// pending jobs (<= 0: 4 workers, depth 64).
func NewManager(workers, queueDepth int) *Manager {
	if workers <= 0 {
		workers = 4
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, queueDepth),
		baseCtx: ctx,
		stop:    cancel,
		retain:  defaultJobRetention,
		clock:   time.Now,
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// SetQueueWaitBudget installs the CoDel-style queue-wait bound for
// budget-less jobs; call before serving traffic.
func (m *Manager) SetQueueWaitBudget(d time.Duration) {
	m.mu.Lock()
	m.queueBudget = d
	m.mu.Unlock()
}

// SubmitOption tunes one submission.
type SubmitOption func(*submitSpec)

type submitSpec struct {
	budget time.Duration
	meta   JobMeta
}

// WithBudget bounds the job end to end: the deadline covers queue wait
// plus run, flows into the job context (and from there into the
// cancellable lattice search), and a job still queued when it expires is
// shed without running. Non-positive budgets are ignored.
func WithBudget(d time.Duration) SubmitOption {
	return func(s *submitSpec) { s.budget = d }
}

// WithMeta attaches the submitting request's correlation identity and
// dataset coordinates to the job.
func WithMeta(meta JobMeta) SubmitOption {
	return func(s *submitSpec) { s.meta = meta }
}

// Submit queues one job. It returns the job snapshot immediately; the
// work runs asynchronously on the pool.
func (m *Manager) Submit(dataset string, params rankfair.AuditParams, run JobFunc, opts ...SubmitOption) (JobView, error) {
	var spec submitSpec
	for _, o := range opts {
		o(&spec)
	}
	m.mu.Lock()
	created := m.clock()
	ctx, cancel := context.WithCancel(m.baseCtx)
	if spec.budget > 0 {
		dctx, dcancel := context.WithDeadline(ctx, created.Add(spec.budget))
		base := cancel
		ctx, cancel = dctx, func() { dcancel(); base() }
	}
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", m.seq),
		Dataset: dataset,
		Params:  params,
		status:  JobQueued,
		created: created,
		budget:  max(spec.budget, 0),
		meta:    spec.meta,
		run:     run,
		runCtx:  ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	m.jobs[j.ID] = j
	m.submitted++
	view := m.viewLocked(j)
	m.mu.Unlock()

	select {
	case m.queue <- j:
		return view, nil
	default:
		m.mu.Lock()
		j.status = JobFailed
		j.err = ErrQueueFull.Error()
		m.submitted-- // never entered the queue
		delete(m.jobs, j.ID)
		m.mu.Unlock()
		cancel()
		return JobView{}, ErrQueueFull
	}
}

// worker drains the queue until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case j := <-m.queue:
			m.execute(j)
		}
	}
}

// outcomeFor maps a terminal job state onto the stable outcome code the
// root span, the wide-event log and the OTLP status all carry: "ok",
// "error", "canceled", "shed" or "deadline_exceeded".
func outcomeFor(status JobStatus, errCode string) string {
	switch {
	case status == JobDone:
		return "ok"
	case status == JobCanceled:
		return "canceled"
	case errCode != "":
		return errCode
	default:
		return "error"
	}
}

// finishTraceLocked builds the span-tree record for a job that reached a
// terminal state before running (shed at dequeue, canceled while
// queued): a root span covering submission→finish with the queue child
// spanning the whole wait and the outcome attribute set. Callers hold
// m.mu — the ring insert lands before the terminal status becomes
// visible to Get/List, preserving the no-404-after-terminal invariant
// the run path has always kept.
func finishTraceLocked(ob *JobObserver, j *Job, outcome string) *obs.Trace {
	if ob == nil {
		return nil
	}
	tr := obs.NewTrace(j.ID, "audit", j.created)
	tr.AdoptIdentity(j.meta.TraceID, j.meta.ParentSpan)
	tr.Root().ChildAt("queue", j.created, j.finished)
	tr.Root().SetAttr("outcome", outcome)
	tr.Root().FinishAt(j.finished)
	if ob.Traces != nil {
		ob.Traces.Put(tr)
	}
	return tr
}

// execute runs one job to completion.
func (m *Manager) execute(j *Job) {
	defer j.finish()
	ctx := j.runCtx
	m.mu.Lock()
	hook := m.beforeRun
	m.mu.Unlock()
	if hook != nil {
		hook()
	}
	m.mu.Lock()
	// A job can end before it runs: canceled while queued, or shed because
	// its queue wait consumed its own budget or, for a budget-less job,
	// exceeded the CoDel-style bound (a wait that long means the queue is
	// persistently behind; late work would only push it further behind).
	shed := ""
	switch wait := m.clock().Sub(j.created); {
	case j.status == JobCanceled:
		// Counted by Cancel already.
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		shed = fmt.Sprintf("shed before running: queue wait exceeded the %v budget", j.budget)
	case ctx.Err() != nil:
		j.status = JobCanceled
		m.canceled++
	case m.queueBudget > 0 && j.budget == 0 && wait > m.queueBudget:
		shed = fmt.Sprintf("shed before running: queue wait %v exceeded the %v bound", wait.Round(time.Millisecond), m.queueBudget)
	default:
		j.status = JobRunning
	}
	if shed != "" {
		j.status, j.errCode, j.err = JobFailed, CodeShed, shed
		m.shed++
		m.failed++
	}
	if j.status != JobRunning {
		j.finished = m.clock()
		j.run = nil
		ob := m.observer
		outcome := outcomeFor(j.status, j.errCode)
		tr := finishTraceLocked(ob, j, outcome)
		m.mu.Unlock()
		j.cancel()
		m.afterTerminal(ob, j, tr, outcome, false, nil)
		return
	}
	j.started = m.clock()
	m.running++
	ob := m.observer
	m.mu.Unlock()

	// The trace roots at submission so the queue wait is visible in the
	// span tree; the run span rides into the job context, and the phases
	// the service opens below it (analyst → search → serialize) nest there.
	var tr *obs.Trace
	var runSpan *obs.Span
	if ob != nil {
		tr = obs.NewTrace(j.ID, "audit", j.created)
		tr.AdoptIdentity(j.meta.TraceID, j.meta.ParentSpan)
		tr.Root().ChildAt("queue", j.created, j.started)
		runSpan = tr.Root().StartChild("run")
		ctx = obs.ContextWithSpan(ctx, runSpan)
		if ob.QueueWait != nil {
			ob.QueueWait.ObserveExemplar(j.started.Sub(j.created).Seconds(), tr.TraceID())
		}
	}

	report, hit, err := j.run(ctx)

	// Classify the terminal state once, before the trace closes and before
	// the status is published, so the outcome attribute on the exported
	// root span and the job's visible status can never disagree.
	finished := m.clock()
	deadlined := errors.Is(ctx.Err(), context.DeadlineExceeded)
	var status JobStatus
	var errCode, errMsg string
	switch {
	case ctx.Err() != nil && !(deadlined && err == nil && report != nil):
		// Canceled mid-run: the job context flows into the lattice search
		// (Analyst.DetectCtx), which aborts within a bounded number of
		// node expansions and returns a partial-work error; whatever the
		// run produced is discarded. A budget expiring is surfaced as a
		// typed deadline_exceeded failure carrying the partial-work error
		// (how many nodes the search examined before stopping); an
		// explicit cancel stays a canceled job. The one exception: a run
		// that *completed* just as its deadline fired still serves its
		// report — the result beat the check.
		if deadlined {
			status, errCode = JobFailed, CodeDeadlineExceeded
			if err != nil {
				errMsg = err.Error()
			} else {
				errMsg = context.DeadlineExceeded.Error()
			}
		} else {
			status = JobCanceled
		}
	case err != nil:
		status, errMsg = JobFailed, err.Error()
	default:
		status = JobDone
	}
	outcome := outcomeFor(status, errCode)

	if ob != nil {
		// Close out the trace before the job's terminal status becomes
		// visible, so a client that polls to completion and immediately
		// fetches /v1/audits/{id}/trace never races the ring insert.
		runSpan.FinishAt(finished)
		tr.Root().SetAttr("outcome", outcome)
		if status == JobDone {
			tr.Root().SetAttr("cache", cacheDisposition(hit))
		}
		tr.Root().FinishAt(finished)
		if ob.Run != nil {
			ob.Run.ObserveExemplar(finished.Sub(j.started).Seconds(), tr.TraceID())
		}
		if ob.Traces != nil {
			ob.Traces.Put(tr)
		}
	}

	// The audit record and the log line go out before the status is
	// published, so a client that sees the job terminal finds them.
	m.afterTerminal(ob, j, tr, outcome, hit, report)
	m.logFinished(ob, j, tr, status, hit, finished)

	m.mu.Lock()
	m.running--
	j.finished = finished
	j.status = status
	j.err = errMsg
	j.errCode = errCode
	switch status {
	case JobDone:
		j.report = report
		j.cacheHit = hit
		m.completed++
	case JobCanceled:
		m.canceled++
	default:
		m.failed++
		if errCode == CodeDeadlineExceeded {
			m.deadlineExceeded++
		} else if errCode == CodeShed {
			m.shed++
		}
	}
	// Release what the job no longer needs: the run closure pins the
	// decoded table, and the uncalled cancel pins a child of baseCtx.
	// (Called after the ctx.Err() check above, which it would taint.)
	j.run = nil
	j.cancel()
	m.pruneLocked()
	m.mu.Unlock()
}

// logFinished writes the slow-audit warning, or the debug line, of a job
// that ran to a terminal status.
func (m *Manager) logFinished(ob *JobObserver, j *Job, tr *obs.Trace, status JobStatus, hit bool, finished time.Time) {
	if ob == nil || ob.Logger == nil {
		return
	}
	elapsed := finished.Sub(j.started)
	elapsedMS := float64(elapsed) / float64(time.Millisecond)
	if ob.SlowAudit > 0 && elapsed >= ob.SlowAudit {
		// The span tree is marshaled into one attribute so a slow audit's
		// phase breakdown lands in the log stream even after the trace
		// ring evicts it.
		spans, _ := json.Marshal(tr.Tree())
		ob.Logger.Warn("slow audit",
			"job", j.ID, "dataset", j.Dataset, "status", string(status),
			"cache_hit", hit, "elapsed_ms", elapsedMS, "trace", string(spans))
		return
	}
	ob.Logger.Debug("audit finished",
		"job", j.ID, "dataset", j.Dataset, "status", string(status),
		"cache_hit", hit, "elapsed_ms", elapsedMS)
}

// cacheDisposition renders the cache outcome for span attributes and the
// wide-event log.
func cacheDisposition(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// afterTerminal runs the observer hooks of a job's terminal transition:
// the OTLP export enqueue and the wide-event audit record. A job that ran
// gets them before its status is published. Called outside m.mu — both
// hooks are non-blocking by contract, but neither needs the lock and the
// log write does I/O.
func (m *Manager) afterTerminal(ob *JobObserver, j *Job, tr *obs.Trace, outcome string, hit bool, report *AuditResult) {
	if ob == nil || tr == nil {
		return
	}
	if ob.Export != nil {
		ob.Export(tr)
	}
	if ob.AuditLog == nil {
		return
	}
	// One wide event per terminal audit: everything needed to reconstruct
	// the request in a single greppable record. Phase durations come from
	// the span tree so the log and the exported trace always agree.
	var queueMS, runMS, serializeMS float64
	_, recs := tr.Records()
	for _, rec := range recs {
		if rec.End.IsZero() {
			continue
		}
		d := float64(rec.End.Sub(rec.Start)) / float64(time.Millisecond)
		switch rec.Name {
		case "queue":
			queueMS = d
		case "run":
			runMS = d
		case "serialize":
			serializeMS = d
		}
	}
	attrs := []any{
		"job", j.ID,
		"request_id", j.meta.RequestID,
		"trace_id", tr.TraceID(),
		"dataset", j.Dataset,
		"dataset_hash", j.meta.DatasetHash,
		"dataset_version", j.meta.DatasetVersion,
		"measure", j.Params.Measure,
		"workers", j.Params.Workers,
		"outcome", outcome,
		"cache", cacheDisposition(hit),
		"queue_ms", queueMS,
		"run_ms", runMS,
		"serialize_ms", serializeMS,
	}
	if report != nil && report.Summary.Stats != nil {
		st := report.Summary.Stats
		attrs = append(attrs,
			"strategy", st.Strategy,
			"nodes_expanded", st.NodesExpanded,
			"pruned", st.PrunedSize+st.PrunedBound+st.PrunedDominated,
			"posting_intersections", st.PostingIntersections,
		)
	}
	ob.AuditLog.Info("audit", attrs...)
}

// pruneLocked drops the oldest finished jobs beyond the retention cap.
// Job IDs are zero-padded sequence numbers, so lexicographic order is
// submission order.
func (m *Manager) pruneLocked() {
	if len(m.jobs) <= m.retain {
		return
	}
	finished := make([]string, 0, len(m.jobs))
	for id, j := range m.jobs {
		switch j.status {
		case JobDone, JobFailed, JobCanceled:
			finished = append(finished, id)
		}
	}
	sort.Strings(finished)
	for _, id := range finished {
		if len(m.jobs) <= m.retain {
			break
		}
		delete(m.jobs, id)
	}
}

// Cancel cancels a queued or running job; it reports whether the job
// exists. A queued job never starts; a running job's context is canceled,
// which stops the in-core lattice search mid-traversal (within a bounded
// number of node expansions) and discards the partial result.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	canceledQueued := false
	if ok && j.status == JobQueued {
		j.status = JobCanceled
		j.finished = m.clock()
		m.canceled++
		canceledQueued = true
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel()
	if canceledQueued {
		j.finish()
	}
	return true
}

// Wait blocks until the job finishes (done, failed or canceled) or ctx
// expires, then returns the final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: no audit %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	view, _ := m.Get(id)
	return view, nil
}

// Get returns the snapshot of one job.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return m.viewLocked(j), true
}

// Report returns the finished report of a done job.
func (m *Manager) Report(id string) (*AuditResult, JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, JobView{}, false
	}
	return j.report, m.viewLocked(j), true
}

// List returns snapshots of every job, newest first.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.viewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Stats snapshots the counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	queued := 0
	for _, j := range m.jobs {
		if j.status == JobQueued {
			queued++
		}
	}
	return ManagerStats{
		Submitted:        m.submitted,
		Completed:        m.completed,
		Failed:           m.failed,
		Canceled:         m.canceled,
		Shed:             m.shed,
		DeadlineExceeded: m.deadlineExceeded,
		Queued:           queued,
		Running:          m.running,
	}
}

// Shutdown cancels every outstanding job and waits for the workers to
// drain, or for ctx to expire. Jobs still waiting in the queue are
// marked canceled so concurrent Wait calls unblock.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.stop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		// Workers are gone; whatever is left in the queue will never
		// run. Cancel it so waiters see a terminal state.
		for {
			select {
			case j := <-m.queue:
				m.mu.Lock()
				if j.status == JobQueued {
					j.status = JobCanceled
					j.finished = m.clock()
					m.canceled++
				}
				m.mu.Unlock()
				j.finish()
			default:
				close(done)
				return
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// viewLocked snapshots a job; callers hold m.mu.
func (m *Manager) viewLocked(j *Job) JobView {
	v := JobView{
		ID:        j.ID,
		Dataset:   j.Dataset,
		Params:    j.Params,
		Status:    j.status,
		Error:     j.err,
		ErrorCode: j.errCode,
		CacheHit:  j.cacheHit,
		Created:   j.created,
		BudgetMS:  j.budget.Milliseconds(),
	}
	switch j.status {
	case JobRunning:
		v.ElapsedMS = float64(m.clock().Sub(j.started)) / float64(time.Millisecond)
	case JobDone, JobFailed, JobCanceled:
		if !j.started.IsZero() {
			v.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if j.report != nil {
		v.NodesExamined = j.report.Summary.NodesExamined
		v.FullSearches = j.report.Summary.FullSearches
		v.TotalGroups = j.report.Summary.TotalGroups
	}
	return v
}
