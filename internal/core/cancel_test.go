package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rankfair/internal/pattern"
)

// budgetCtx reports cancellation once its Err method has been polled more
// than limit times. It makes cancellation latency deterministic: tests pin
// down exactly how many node expansions a search may perform after the
// cancellation becomes observable, with no reliance on wall-clock timing.
type budgetCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func newBudgetCtx(limit int64) *budgetCtx {
	return &budgetCtx{Context: context.Background(), limit: limit}
}

func (c *budgetCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// denseCancelInput builds an input whose lattice is large enough that a
// full traversal examines orders of magnitude more nodes than the
// cancellation-latency bound.
func denseCancelInput(nAttrs, nRows int) *Input {
	rng := rand.New(rand.NewSource(42))
	cards := make([]int, nAttrs)
	names := make([]string, nAttrs)
	for i := range cards {
		cards[i] = 2
		names[i] = string(rune('A' + i))
	}
	rows := make([][]int32, nRows)
	for i := range rows {
		r := make([]int32, nAttrs)
		for j := range r {
			r[j] = int32(rng.Intn(2))
		}
		rows[i] = r
	}
	return &Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: rng.Perm(nRows)}
}

// cancelSpecs names every search with uniform parameters over [kMin, kMax].
func cancelSpecs(kMin, kMax int) map[string]Spec {
	lower := ConstantBounds(kMin, kMax, 1)
	upper := ConstantBounds(kMin, kMax, 1)
	return NamedSpecs(
		Spec{Measure: MeasureGlobal, MinSize: 1, KMin: kMin, KMax: kMax, Lower: lower},
		Spec{Measure: MeasureProp, MinSize: 1, KMin: kMin, KMax: kMax, Alpha: 0.8},
		Spec{Measure: MeasureExposure, MinSize: 1, KMin: kMin, KMax: kMax, Alpha: 0.8},
		Spec{Measure: MeasureGlobalUpper, MinSize: 1, KMin: kMin, KMax: kMax, Upper: upper},
		Spec{Measure: MeasurePropUpper, MinSize: 1, KMin: kMin, KMax: kMax, Beta: 1.2})
}

// TestPreCanceledContextRejectedUpfront: an already-canceled context must
// fail every entry point before any lattice work happens.
func TestPreCanceledContextRejectedUpfront(t *testing.T) {
	in := denseCancelInput(4, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, spec := range cancelSpecs(2, 6) {
		res, err := Search(ctx, in, workers(spec, 2))
		if res != nil {
			t.Errorf("%s: returned a result despite canceled context", name)
		}
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: want CanceledError, got %v", name, err)
			continue
		}
		if cerr.NodesExamined != 0 {
			t.Errorf("%s: examined %d nodes before the preflight check", name, cerr.NodesExamined)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error does not unwrap to context.Canceled", name)
		}
	}
}

// TestCancellationBoundedLatency proves the tentpole claim: once the
// context reports canceled, a search stops within a bounded number of node
// expansions. Every canceler polls the context at most once per
// cancelStride expansions, so the total work after the poll budget is
// exhausted is bounded by (budget + live cancelers) * cancelStride; the
// test gives each run a tiny poll budget and asserts the examined-node
// count stays far below the full traversal.
func TestCancellationBoundedLatency(t *testing.T) {
	in := denseCancelInput(12, 400)
	full, err := Search(bg, in, Spec{Measure: MeasureGlobal, MinSize: 1, KMin: 20, KMax: 20, Lower: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// One canceler exists per root unit (24 here) plus one per step walk;
	// with a poll budget of 3 the bound is well under 64 strides.
	const bound = 64 * cancelStride
	if full.Stats.NodesExamined <= 4*bound {
		t.Fatalf("workload too small to prove early exit: full run examined %d nodes", full.Stats.NodesExamined)
	}
	for name, spec := range cancelSpecs(20, 20) {
		if name == "IterTDGlobalUpperMostGeneral" {
			// Its walk examines only the 24 roots per k, fewer than one
			// stride, so the polls that exhaust the budget are the per-k
			// preflights of a longer k range.
			spec = cancelSpecs(20, 60)[name]
		}
		for _, w := range []int{1, 4} {
			res, err := Search(newBudgetCtx(3), in, workers(spec, w))
			if res != nil {
				t.Errorf("%s workers=%d: returned a result despite cancellation", name, w)
			}
			var cerr *CanceledError
			if !errors.As(err, &cerr) {
				t.Errorf("%s workers=%d: want CanceledError, got %v", name, w, err)
				continue
			}
			if cerr.NodesExamined > bound {
				t.Errorf("%s workers=%d: examined %d nodes after cancellation, bound %d",
					name, w, cerr.NodesExamined, bound)
			}
		}
	}
}

// TestCancelMidRunReturnsPromptly exercises the real context machinery: a
// search over a large lattice is canceled shortly after it starts and must
// return a CanceledError long before the full traversal would finish.
func TestCancelMidRunReturnsPromptly(t *testing.T) {
	in := denseCancelInput(14, 600)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Search(ctx, in, Spec{Measure: MeasureGlobal, MinSize: 1, KMin: 30, KMax: 30, Lower: []int{1}, Workers: 2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Skip("search finished before the cancellation landed; nothing to assert")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled search did not return within 30s")
	}
}
