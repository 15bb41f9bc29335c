package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/fault"
	"rankfair/internal/synth"
)

// chaosService builds a store-backed service whose disk access runs
// through a fault injector, plus short breaker settings so trips and
// recoveries happen on test timescales.
func chaosService(t *testing.T, dir string, cfg Config) (*Service, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector(1)
	cfg.DataDir = dir
	cfg.StoreFS = fault.NewFaultFS(fault.OS{}, inj)
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 100 * time.Millisecond
	}
	svc := mustNew(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, inj
}

func worstCaseCSV(t *testing.T, n int) []byte {
	t.Helper()
	var csv bytes.Buffer
	if err := rankfair.WriteCSV(&csv, synth.WorstCase(n).Table); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

func worstCaseRequest(datasetID string, n int) AuditRequest {
	perm := make([]int, n+1)
	for i := range perm {
		perm[i] = i
	}
	return AuditRequest{
		Dataset: datasetID,
		Ranker:  RankerSpec{Ranking: perm},
		Params: rankfair.AuditParams{
			Measure: rankfair.MeasureGlobal, MinSize: 2, KMin: n, KMax: n, Lower: []int{n/2 + 1},
		},
	}
}

// TestChaosAppendRollsBackOnInjectedWriteError: an ENOSPC mid-append
// must fail the request with a storage error and leave both tiers on the
// pre-append generation — including the caches, which before this PR
// were invalidated before the persist and so lost valid entries to a
// failed append.
func TestChaosAppendRollsBackOnInjectedWriteError(t *testing.T) {
	svc, inj := chaosService(t, t.TempDir(), Config{})
	info, _, err := svc.Registry().Add("ds", biasedCSV(60), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.persistSeed(info, biasedCSV(60), rankfair.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	// Warm the result cache so we can prove a failed append leaves it alone.
	view, err := svc.SubmitAudit(AuditRequest{
		Dataset: info.ID, Ranker: scoreRanker(),
		Params: rankfair.AuditParams{Measure: "prop", MinSize: 5, KMin: 5, KMax: 20, Alpha: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := svc.Jobs().Wait(ctx, view.ID); err != nil || final.Status != JobDone {
		t.Fatalf("warm-up audit: %v / %+v", err, final)
	}
	missesBefore := svc.Cache().Stats().Misses

	inj.Add(fault.Rule{Op: "write", Path: "blobs", Count: 1, Err: syscall.ENOSPC})
	_, err = svc.AppendRows(info.ID, "text/csv", []byte("F,N,1\n"))
	if err == nil {
		t.Fatal("append under injected ENOSPC succeeded")
	}
	var se *StorageError
	if !errors.As(err, &se) {
		t.Fatalf("append failure is %T (%v), want *StorageError", err, err)
	}
	_, cur, ok := svc.getDataset(info.ID)
	if !ok || cur.Version != 1 || cur.Hash != info.Hash {
		t.Fatalf("dataset after failed append = v%d %.12s, want untouched v1", cur.Version, cur.Hash)
	}

	// The cached audit must still hit: the rollback may not have
	// invalidated entries for a generation that never advanced.
	view, err = svc.SubmitAudit(AuditRequest{
		Dataset: info.ID, Ranker: scoreRanker(),
		Params: rankfair.AuditParams{Measure: "prop", MinSize: 5, KMin: 5, KMax: 20, Alpha: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := svc.Jobs().Wait(ctx, view.ID); err != nil || final.Status != JobDone {
		t.Fatalf("post-rollback audit: %v / %+v", err, final)
	}
	if misses := svc.Cache().Stats().Misses; misses != missesBefore {
		t.Errorf("failed append evicted the result cache: misses %d -> %d", missesBefore, misses)
	}

	// The fault rule is spent: the retried append must land cleanly.
	resp, err := svc.AppendRows(info.ID, "text/csv", []byte("F,N,1\n"))
	if err != nil {
		t.Fatalf("retried append failed: %v", err)
	}
	if resp.Dataset.Version != 2 {
		t.Fatalf("retried append produced v%d, want v2", resp.Dataset.Version)
	}
}

// TestChaosBreakerTripsAndRecovers drives the full breaker cycle on a
// persistently failing disk: consecutive append failures open it, open
// writes shed fast with 503 store_unavailable while reads keep serving
// (degraded mode, visible on /healthz), and once the disk heals a
// half-open probe closes it again.
func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	svc, inj := chaosService(t, t.TempDir(), Config{BreakerThreshold: 2})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	info := upload(t, ts, biasedCSV(60))

	// Every manifest write fails: each append is one infra failure.
	inj.Add(fault.Rule{Op: "write", Path: "MANIFEST", Err: syscall.EIO})
	for i := 0; i < 2; i++ {
		if _, err := svc.AppendRows(info.ID, "text/csv", []byte("F,N,1\n")); err == nil {
			t.Fatalf("append %d under injected EIO succeeded", i)
		}
	}
	if got := svc.breaker.State(); got != breakerOpen {
		t.Fatalf("breaker state after %d infra failures = %d, want open", 2, got)
	}

	// Open breaker: writes shed without touching the disk.
	resp, err := http.Post(ts.URL+"/v1/datasets/"+info.ID+"/rows", "text/csv", bytes.NewReader([]byte("F,N,1\n")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append with open breaker: status %d body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(CodeStoreUnavailable)) {
		t.Fatalf("append with open breaker returned %s, want code %s", body, CodeStoreUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("store_unavailable response carries no Retry-After")
	}

	// Degraded mode: reads still serve, health reports it.
	resp, err = http.Get(ts.URL + "/v1/datasets/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read in degraded mode: status %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Store  string `json:"store"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "degraded" || health.Store == "closed" {
		t.Fatalf("healthz in degraded mode = %+v, want degraded with a non-closed store", health)
	}

	// Disk heals; after the cooldown one probe write closes the breaker.
	inj.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.AppendRows(info.ID, "text/csv", []byte("F,N,1\n")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after the disk healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := svc.breaker.State(); got != breakerClosed {
		t.Fatalf("breaker state after successful probe = %d, want closed", got)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after recovery = %+v (status %d), want ok", health, code)
	}
}

// TestChaosDeadlineExceededTypedEnvelope: an audit whose budget expires
// mid-search must fail with the typed deadline_exceeded code, a
// partial-work message naming how far the traversal got, and do so near
// the budget — not after the full multi-second worst-case search.
func TestChaosDeadlineExceededTypedEnvelope(t *testing.T) {
	const n = 21 // full serial search takes several seconds
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	info, _, err := svc.Registry().Add("worst", worstCaseCSV(t, n), rankfair.CSVOptions{AllCategorical: true})
	if err != nil {
		t.Fatal(err)
	}

	const budget = 500 * time.Millisecond
	req := worstCaseRequest(info.ID, n)
	req.DeadlineMS = budget.Milliseconds()
	start := time.Now()
	view, err := svc.SubmitAudit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.Jobs().Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if final.Status != JobFailed || final.ErrorCode != CodeDeadlineExceeded {
		t.Fatalf("deadline audit ended %s/%s (%s), want failed/%s",
			final.Status, final.ErrorCode, final.Error, CodeDeadlineExceeded)
	}
	if !regexp.MustCompile(`node expansions`).MatchString(final.Error) {
		t.Errorf("error %q carries no partial-work progress", final.Error)
	}
	if elapsed > 2*budget {
		t.Errorf("deadline audit took %v, want <= 2x the %v budget", elapsed, budget)
	}
	if final.BudgetMS != budget.Milliseconds() {
		t.Errorf("job view budget_ms = %d, want %d", final.BudgetMS, budget.Milliseconds())
	}

	// The report endpoint maps the typed failure to 504.
	resp, err := http.Get(ts.URL + "/v1/audits/" + view.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || !bytes.Contains(body, []byte(CodeDeadlineExceeded)) {
		t.Fatalf("report of deadlined audit: status %d body %s, want 504 %s",
			resp.StatusCode, body, CodeDeadlineExceeded)
	}

	// The X-Deadline-Ms header is the other way in; a zero-budget body
	// inherits it, and an unparseable value is a 400.
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/audits", bytes.NewReader(mustJSON(t, worstCaseRequest(info.ID, n))))
	hreq.Header.Set("X-Deadline-Ms", "250")
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var hview JobView
	if err := json.NewDecoder(resp.Body).Decode(&hview); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || hview.BudgetMS != 250 {
		t.Fatalf("header deadline: status %d budget_ms %d, want 202 / 250", resp.StatusCode, hview.BudgetMS)
	}
	svc.Jobs().Cancel(hview.ID)
	hreq, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/audits", bytes.NewReader(mustJSON(t, worstCaseRequest(info.ID, n))))
	hreq.Header.Set("X-Deadline-Ms", "soon")
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed X-Deadline-Ms: status %d, want 400", resp.StatusCode)
	}
}

// TestChaosDeadlineStormShedsWithoutLeaks floods a one-worker manager
// with short-deadline jobs: expired queued jobs must shed at dequeue
// (typed, without running), at least one running job must deadline, and
// the storm must not leak goroutines.
func TestChaosDeadlineStormShedsWithoutLeaks(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	m := NewManager(1, 64)
	run := func(ctx context.Context) (*AuditResult, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	const storm = 40
	ids := make([]string, 0, storm)
	for i := 0; i < storm; i++ {
		view, err := m.Submit("ds", rankfair.AuditParams{}, run, WithBudget(10*time.Millisecond))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, view.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		if _, err := m.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	st := m.Stats()
	if st.Shed == 0 {
		t.Error("no queued job was shed by its expired deadline")
	}
	if st.DeadlineExceeded == 0 {
		t.Error("no running job was deadline-exceeded")
	}
	if st.Shed+st.DeadlineExceeded != st.Failed || st.Failed+st.Completed+st.Canceled != storm {
		t.Errorf("stats don't add up: %+v", st)
	}
	for _, id := range ids {
		v, _ := m.Get(id)
		if v.Status == JobFailed && v.ErrorCode != CodeShed && v.ErrorCode != CodeDeadlineExceeded {
			t.Errorf("job %s failed with code %q, want typed shed/deadline_exceeded", id, v.ErrorCode)
		}
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Goroutine hygiene: everything the storm spawned must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before storm, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosPageInRetriesTransientReads: a transient blob-read error
// during a restart page-in must be retried in place instead of failing
// the dataset load.
func TestChaosPageInRetriesTransientReads(t *testing.T) {
	dir := t.TempDir()
	seed := biasedCSV(60)
	svc1, _ := chaosService(t, dir, Config{})
	info, _, err := svc1.Registry().Add("ds", seed, rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.persistSeed(info, seed, rankfair.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.AppendRows(info.ID, "text/csv", []byte("F,N,1\n")); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, inj := chaosService(t, dir, Config{})
	inj.Add(fault.Rule{Op: "readfile", Path: "blobs", Count: 1, Err: syscall.EAGAIN, Transient: true})
	_, cur, ok := svc2.getDataset(info.ID)
	if !ok {
		t.Fatal("page-in failed under a single transient read error")
	}
	if cur.Version != 2 {
		t.Fatalf("paged-in dataset is v%d, want v2", cur.Version)
	}
	if got := svc2.obs.storeRetries.Value(); got == 0 {
		t.Error("transient read error was not counted as a retry")
	}
}

// TestChaosClientDisconnectCancelsAudit: a client that submits with
// ?wait=true and hangs up mid-search must leave behind a canceled job
// (not a failed one) and a "canceled" request-error metric, not a 5xx.
func TestChaosClientDisconnectCancelsAudit(t *testing.T) {
	const n = 19 // ~1s serial search: a wide cancel-while-running window
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	info, _, err := svc.Registry().Add("worst", worstCaseCSV(t, n), rankfair.CSVOptions{AllCategorical: true})
	if err != nil {
		t.Fatal(err)
	}

	reqCtx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		ts.URL+"/v1/audits?wait=true", bytes.NewReader(mustJSON(t, worstCaseRequest(info.ID, n))))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Hang up once the audit is actually running.
	deadline := time.Now().Add(10 * time.Second)
	var jobID string
	for jobID == "" {
		if time.Now().After(deadline) {
			t.Fatal("audit never started running")
		}
		for _, v := range svc.Jobs().List() {
			if v.Status == JobRunning {
				jobID = v.ID
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	hangUp()
	if err := <-done; err == nil {
		t.Fatal("canceled wait=true request returned without error")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.Jobs().Wait(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobCanceled {
		t.Fatalf("job after client disconnect ended %s (%s), want canceled", final.Status, final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := labeledMetricValue(t, raw, "rankfaird_request_errors_total", "class", "canceled"); got == 0 {
		t.Error("client disconnect not counted in the canceled request-error class")
	}
	if got := labeledMetricValue(t, raw, "rankfaird_request_errors_total", "class", "5xx"); got != 0 {
		t.Errorf("client disconnect counted as %d server errors", got)
	}
}

// TestChaosAdmissionShedsByClass: with a tiny inflight cap, a second
// concurrent audit must shed with 503/shed while reads still serve —
// audits hit their lower class limit first.
func TestChaosAdmissionShedsByClass(t *testing.T) {
	const n = 19                                                         // the holder's audit must outlive the shed/read probes below
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 4, MaxInflight: 2}) // audit class limit: 1
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	info, _, err := svc.Registry().Add("worst", worstCaseCSV(t, n), rankfair.CSVOptions{AllCategorical: true})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only audit slot with a wait=true submit.
	holdCtx, release := context.WithCancel(context.Background())
	t.Cleanup(release)
	req, _ := http.NewRequestWithContext(holdCtx, http.MethodPost,
		ts.URL+"/v1/audits?wait=true", bytes.NewReader(mustJSON(t, worstCaseRequest(info.ID, n))))
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.obs.inflightGauge.With("audit").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder request never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/audits", "application/json", bytes.NewReader(mustJSON(t, worstCaseRequest(info.ID, n))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"`+CodeShed+`"`)) {
		t.Fatalf("second audit: status %d body %s, want 503 %s", resp.StatusCode, body, CodeShed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}

	// Reads and operational endpoints still serve under the same load.
	for _, path := range []string{"/v1/datasets", "/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while audits shed: status %d", path, resp.StatusCode)
		}
	}
	release()
	for _, v := range svc.Jobs().List() {
		svc.Jobs().Cancel(v.ID)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// labeledMetricValue extracts one labeled series value from a Prometheus
// text exposition, returning 0 when the series is absent.
func labeledMetricValue(t *testing.T, raw []byte, name, label, value string) int {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\{` + regexp.QuoteMeta(label) + `="` + regexp.QuoteMeta(value) + `"\} (\d+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		return 0
	}
	v, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return v
}
