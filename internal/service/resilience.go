package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rankfair/internal/store"
)

// UnavailableError marks a request refused for capacity or store-health
// reasons; handlers map it to 503 with the embedded code and a
// Retry-After header derived from RetryAfter.
type UnavailableError struct {
	Code       string
	RetryAfter time.Duration
	Err        error
}

func (e *UnavailableError) Error() string { return e.Err.Error() }
func (e *UnavailableError) Unwrap() error { return e.Err }

// Breaker states, in escalation order as exposed by
// rankfaird_store_breaker_state: 0 closed (healthy), 1 half-open
// (probing), 2 open (shedding writes).
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

func breakerStateName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a three-state circuit breaker over durable-store writes.
// Consecutive infrastructure failures open it; while open, writes are
// rejected without touching the disk (a dying disk fails fast instead of
// stalling every append on its timeout). After a cooldown one probe
// write is admitted half-open: success closes the breaker, failure
// re-opens it for another cooldown. Reads are never gated — degraded
// mode keeps serving what is cached or already durable.
type breaker struct {
	mu        sync.Mutex
	state     int
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool

	// now is injectable for deterministic cooldown tests.
	now func() time.Time
	// onTransition observes state changes ("open", "half-open", "closed")
	// for the transition counter and log stream. Called outside mu? No —
	// called under mu; keep the hook non-reentrant.
	onTransition func(to string)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// State returns the current state constant (a nil breaker is closed).
func (b *breaker) State() int {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		// Cooldown elapsed but no write has probed yet; report half-open
		// so health checks see the recovery window, not a stale open.
		return breakerHalfOpen
	}
	return b.state
}

// Allow reports whether a write may proceed. Every true return must be
// paired with exactly one Report call.
func (b *breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setStateLocked(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Report feeds one write outcome back. Only infrastructure failures
// (store.IOError) should be reported as failed — logical rejections
// prove the disk works.
func (b *breaker) Report(failed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.state == breakerHalfOpen
	if wasProbe {
		b.probing = false
	}
	if failed {
		switch b.state {
		case breakerHalfOpen:
			b.openLocked()
		case breakerClosed:
			b.failures++
			if b.failures >= b.threshold {
				b.openLocked()
			}
		}
		return
	}
	b.failures = 0
	if wasProbe {
		b.setStateLocked(breakerClosed)
	}
}

func (b *breaker) openLocked() {
	b.openedAt = b.now()
	b.failures = 0
	b.setStateLocked(breakerOpen)
}

func (b *breaker) setStateLocked(state int) {
	if b.state == state {
		return
	}
	b.state = state
	if b.onTransition != nil {
		b.onTransition(breakerStateName(state))
	}
}

// RetryAfter estimates when a rejected write is worth retrying: the
// remaining cooldown, floored at one second.
func (b *breaker) RetryAfter() time.Duration {
	if b == nil {
		return time.Second
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return time.Second
	}
	remain := b.cooldown - b.now().Sub(b.openedAt)
	if remain < time.Second {
		return time.Second
	}
	return remain
}

// isTransient reports whether an error is worth retrying in place: an
// error chain exposing Transient() (the fault package's mark) decides
// directly; otherwise the interrupted/again errnos qualify.
func isTransient(err error) bool {
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// isInfraError reports whether a store failure was the filesystem's
// fault (counts against the breaker) rather than a logical rejection.
func isInfraError(err error) bool {
	var ioe *store.IOError
	return errors.As(err, &ioe)
}

// storeWrite runs one durable-store write under the resilience policy:
// breaker gate, bounded retry with jittered exponential backoff on
// transient errors, then outcome reporting. The returned error is the
// store's own (so callers keep their NotFound/StorageError mapping),
// except when the breaker rejects outright — that is an UnavailableError
// carrying code store_unavailable and a Retry-After hint.
func (s *Service) storeWrite(op string, fn func() error) error {
	if !s.breaker.Allow() {
		if s.obs != nil {
			s.obs.storeRejected.Inc()
		}
		return &UnavailableError{
			Code:       CodeStoreUnavailable,
			RetryAfter: s.breaker.RetryAfter(),
			Err:        fmt.Errorf("durable store unavailable (circuit breaker open, %s rejected)", op),
		}
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || attempt >= s.storeRetries() || !isTransient(err) {
			break
		}
		if s.obs != nil {
			s.obs.storeRetries.Inc()
		}
		sleepBackoff(s.cfg.StoreBackoff, attempt)
	}
	failed := err != nil && isInfraError(err)
	s.breaker.Report(failed)
	if failed {
		s.logger.Warn("durable store write failed", "op", op, "err", err)
	}
	return err
}

// storeBlob reads one blob through storeRead.
func (s *Service) storeBlob(hash string) ([]byte, error) {
	return s.storeRead(func() ([]byte, error) { return s.store.Blob(hash) })
}

// storeRead runs one store read under the same bounded transient retry as
// writes but with no breaker gate: reads are what degraded mode keeps
// serving, so an open breaker must not shed them.
func (s *Service) storeRead(read func() ([]byte, error)) ([]byte, error) {
	var raw []byte
	var err error
	for attempt := 0; ; attempt++ {
		raw, err = read()
		if err == nil || attempt >= s.storeRetries() || !isTransient(err) {
			return raw, err
		}
		if s.obs != nil {
			s.obs.storeRetries.Inc()
		}
		sleepBackoff(s.cfg.StoreBackoff, attempt)
	}
}

// storageErr shapes a store failure for the HTTP layer: breaker
// rejections keep their UnavailableError identity (503 with Retry-After)
// while everything else becomes a StorageError (500).
func storageErr(err error) error {
	var ue *UnavailableError
	if errors.As(err, &ue) {
		return err
	}
	return &StorageError{Err: err}
}

// storeRetries is the bounded retry count for transient store errors
// (attempts beyond the first); Config.StoreRetries < 0 disables.
func (s *Service) storeRetries() int {
	if s.cfg.StoreRetries < 0 {
		return 0
	}
	return s.cfg.StoreRetries
}

// sleepBackoff sleeps one jittered exponential step: base<<attempt plus
// up to half of itself again, capped at 200ms so a request never stalls
// long behind a persistently sick disk.
func sleepBackoff(base time.Duration, attempt int) {
	d := base << min(attempt, 10)
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	time.Sleep(d)
}

// retryAfterHint estimates when admission pressure will ease: the
// observed median audit run time times the queued-plus-running waves per
// worker, clamped to [1s, 60s]. Before any completed run it falls back
// to one second.
func (s *Service) retryAfterHint() time.Duration {
	p50 := time.Duration(s.obs.runLatency.Quantile(0.5) * float64(time.Second))
	if p50 <= 0 {
		return time.Second
	}
	st := s.jobs.Stats()
	waves := (st.Queued + st.Running + s.cfg.Workers) / s.cfg.Workers // ceiling-ish
	return clampDuration(time.Duration(waves)*p50, time.Second, 60*time.Second)
}

// notReadyHint is the poll-again hint for a still-running audit: the
// median run time, clamped to [1s, 10s].
func (s *Service) notReadyHint() time.Duration {
	p50 := time.Duration(s.obs.runLatency.Quantile(0.5) * float64(time.Second))
	return clampDuration(p50, time.Second, 10*time.Second)
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// retryAfterValue renders a duration as the whole-seconds Retry-After
// header value, rounding up so "almost a second" never renders as 0.
func retryAfterValue(d time.Duration) string {
	return strconv.FormatInt(int64(math.Ceil(d.Seconds())), 10)
}

// admissionState is the HTTP-layer inflight cap with per-class limits.
// Classes shed in priority order as the server fills: audits (the heavy
// lattice work) at 3/4 of capacity, appends at 7/8, reads only at the
// full cap — so under overload the daemon keeps answering cheap reads
// and health checks while new heavy work queues elsewhere.
type admissionState struct {
	cap      int64
	limits   map[string]int64
	inflight counter64
}

// counter64 is a tiny atomic wrapper kept separate so admissionState
// stays copy-free behind a pointer.
type counter64 struct {
	mu sync.Mutex
	n  int64
}

func (c *counter64) add(d int64) int64 {
	c.mu.Lock()
	c.n += d
	n := c.n
	c.mu.Unlock()
	return n
}

func newAdmissionState(capacity int) *admissionState {
	c := int64(capacity)
	return &admissionState{
		cap: c,
		limits: map[string]int64{
			"audit":  max64(1, c*3/4),
			"append": max64(1, c*7/8),
			"read":   c,
		},
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// requestClass buckets a route for admission control: audits (lattice
// work, shed first), appends (ingest writes), reads; "" exempts the
// operational endpoints — /healthz and /metrics must answer precisely
// when the server is drowning.
func requestClass(route string) string {
	switch route {
	case "GET /healthz", "GET /metrics", "unmatched":
		return ""
	case "POST /v1/audits", "POST /v1/repair", "POST /v1/explain":
		return "audit"
	case "POST /v1/datasets", "POST /v1/datasets/{id}/rows", "DELETE /v1/datasets/{id}":
		return "append"
	default:
		return "read"
	}
}

// admit reserves an inflight slot for one request; ok=false means the
// class is over its limit and the request should shed with 503. The
// release func must be called exactly once when ok.
func (s *Service) admit(class string) (release func(), ok bool) {
	a := s.admission
	if a == nil || class == "" {
		return func() {}, true
	}
	if cur := a.inflight.add(1); cur > a.limits[class] {
		a.inflight.add(-1)
		return nil, false
	}
	g := s.obs.inflightGauge.With(class)
	g.Inc()
	return func() {
		a.inflight.add(-1)
		g.Dec()
	}, true
}
