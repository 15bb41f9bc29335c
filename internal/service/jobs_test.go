package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/obs"
)

func testParams() rankfair.AuditParams {
	return rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 2, Alpha: 0.8}
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestManagerRunsJobs(t *testing.T) {
	m := NewManager(2, 8)
	defer m.Shutdown(context.Background())

	report := &AuditResult{Body: []byte("{}\n"), Summary: ResultSummary{NodesExamined: 7}}
	view, err := m.Submit("ds-x", testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
		return report, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != JobQueued || view.ID == "" {
		t.Errorf("submit view = %+v, want queued with ID", view)
	}

	final, err := m.Wait(waitCtx(t), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone || final.NodesExamined != 7 {
		t.Errorf("final = %+v, want done with stats", final)
	}
	got, _, ok := m.Report(view.ID)
	if !ok || got != report {
		t.Errorf("Report = %v, %v; want the submitted report", got, ok)
	}
	if st := m.Stats(); st.Completed != 1 || st.Submitted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestManagerJobFailure(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Shutdown(context.Background())
	view, err := m.Submit("ds-x", testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
		return nil, false, errors.New("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(waitCtx(t), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobFailed || final.Error != "kaboom" {
		t.Errorf("final = %+v, want failed kaboom", final)
	}
	if st := m.Stats(); st.Failed != 1 {
		t.Errorf("stats = %+v, want 1 failure", st)
	}
}

func TestManagerQueueFull(t *testing.T) {
	m := NewManager(1, 1)
	defer m.Shutdown(context.Background())
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) (*AuditResult, bool, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &AuditResult{}, false, nil
	}
	// First job occupies the worker; second fills the queue slot. The
	// worker may not have picked up the first yet, so allow one extra.
	var lastErr error
	for i := 0; i < 4; i++ {
		_, lastErr = m.Submit("ds-x", testParams(), block)
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull after saturating worker+queue", lastErr)
	}
}

func TestManagerCancelQueued(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Shutdown(context.Background())
	gate := make(chan struct{})
	block := func(ctx context.Context) (*AuditResult, bool, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &AuditResult{}, false, nil
	}
	running, err := m.Submit("ds-x", testParams(), block)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("ds-x", testParams(), block)
	if err != nil {
		t.Fatal(err)
	}

	if m.Cancel("job-nope") {
		t.Error("Cancel of unknown job should report false")
	}
	if !m.Cancel(queued.ID) {
		t.Fatal("Cancel of queued job should report true")
	}
	view, err := m.Wait(waitCtx(t), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != JobCanceled {
		t.Errorf("canceled job status = %s, want canceled", view.Status)
	}

	close(gate)
	if _, err := m.Wait(waitCtx(t), running.ID); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Canceled != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 canceled, 1 completed", st)
	}
}

func TestManagerList(t *testing.T) {
	m := NewManager(2, 8)
	defer m.Shutdown(context.Background())
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(fmt.Sprintf("ds-%d", i), testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
			return &AuditResult{}, false, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("List returned %d jobs, want 3", len(list))
	}
	if list[0].ID <= list[1].ID || list[1].ID <= list[2].ID {
		t.Errorf("List not newest-first: %v, %v, %v", list[0].ID, list[1].ID, list[2].ID)
	}
}

// TestManagerShutdownDrainsQueued: jobs still waiting in the queue when
// Shutdown runs must end canceled, and Wait on them must unblock.
func TestManagerShutdownDrainsQueued(t *testing.T) {
	m := NewManager(1, 8)
	started := make(chan struct{})
	block := func(ctx context.Context) (*AuditResult, bool, error) {
		close(started)
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	first, err := m.Submit("ds-x", testParams(), block)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []JobView
	for i := 0; i < 3; i++ {
		v, err := m.Submit("ds-x", testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
			return &AuditResult{}, false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := m.Wait(context.Background(), queued[0].ID)
		waitErr <- err
	}()

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Errorf("Wait on queued job after shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait on a queued job deadlocked across Shutdown")
	}
	for _, v := range append(queued, first) {
		final, ok := m.Get(v.ID)
		if !ok || final.Status != JobCanceled {
			t.Errorf("job %s = %+v, want canceled", v.ID, final)
		}
	}
}

// TestManagerPrunesFinishedJobs: the record map must stay bounded.
func TestManagerPrunesFinishedJobs(t *testing.T) {
	m := NewManager(2, 64)
	defer m.Shutdown(context.Background())
	m.retain = 5
	ids := make([]string, 12)
	for i := range ids {
		v, err := m.Submit("ds-x", testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
			return &AuditResult{}, false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
		if _, err := m.Wait(waitCtx(t), v.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.List()); got > 5 {
		t.Errorf("%d job records retained, want <= 5", got)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest finished job should have been pruned")
	}
	if _, ok := m.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job should be retained")
	}
}

func TestManagerShutdownCancelsRunning(t *testing.T) {
	m := NewManager(1, 4)
	started := make(chan struct{})
	view, err := m.Submit("ds-x", testParams(), func(ctx context.Context) (*AuditResult, bool, error) {
		close(started)
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	final, ok := m.Get(view.ID)
	if !ok || final.Status != JobCanceled {
		t.Errorf("after shutdown job = %+v, want canceled", final)
	}
}

// TestManagerQueueWaitBound drives the CoDel-style queue-wait bound with
// the manager's clock: every dequeue advances it by one second, past the
// 100ms bound. A budget-less job is shed at dequeue; a job carrying its
// own budget answers to that budget only and runs.
func TestManagerQueueWaitBound(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Shutdown(context.Background())
	base := time.Now()
	var elapsed atomic.Int64
	m.clock = func() time.Time { return base.Add(time.Duration(elapsed.Load())) }
	m.beforeRun = func() { elapsed.Add(int64(time.Second)) }
	m.SetQueueWaitBudget(100 * time.Millisecond)
	traces := obs.NewTraceStore(8)
	m.SetObserver(&JobObserver{Traces: traces})
	ran := false
	run := func(ctx context.Context) (*AuditResult, bool, error) {
		ran = true
		return &AuditResult{}, false, nil
	}

	view, err := m.Submit("ds", testParams(), run)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(waitCtx(t), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobFailed || final.ErrorCode != CodeShed {
		t.Fatalf("budget-less job ended %s/%s, want failed/shed", final.Status, final.ErrorCode)
	}
	if !strings.Contains(final.Error, "exceeded the 100ms bound") {
		t.Errorf("shed error %q does not name the bound", final.Error)
	}
	if ran {
		t.Error("shed job ran")
	}
	if st := m.Stats(); st.Shed != 1 || st.Failed != 1 {
		t.Errorf("stats after shed = %+v, want shed 1, failed 1", st)
	}
	tr, ok := traces.Get(view.ID)
	if !ok {
		t.Fatal("shed job has no trace in the ring")
	}
	if got := tr.Tree().Root.Attrs; len(got) == 0 || got[0].Key != "outcome" || got[0].Value != "shed" {
		t.Errorf("shed root span attrs = %v, want outcome=shed", got)
	}

	view, err = m.Submit("ds", testParams(), run, WithBudget(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if final, err = m.Wait(waitCtx(t), view.ID); err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone || !ran {
		t.Errorf("budgeted job ended %s (ran %v), want done", final.Status, ran)
	}
	if st := m.Stats(); st.Shed != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats after budgeted job = %+v, want shed 1, failed 1, completed 1", st)
	}
}
