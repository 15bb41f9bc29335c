package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheHitAndEviction(t *testing.T) {
	c := NewCache(2)
	ctx := context.Background()
	compute := func(v string) func() (any, error) {
		return func() (any, error) { return v, nil }
	}

	if _, hit, _ := c.Do(ctx, "a", compute("va")); hit {
		t.Error("first Do should be a miss")
	}
	if v, hit, _ := c.Do(ctx, "a", compute("!")); !hit || v != "va" {
		t.Errorf("second Do: hit=%v v=%v, want cached va", hit, v)
	}

	// Fill beyond capacity; "a" was most recently used, so "b" evicts.
	c.Do(ctx, "b", compute("vb"))
	c.Do(ctx, "a", compute("!")) // touch a
	c.Do(ctx, "c", compute("vc"))

	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

// TestCacheRemoveMatchesValue: Remove drops an entry only while it still
// holds the value the caller saw.
func TestCacheRemoveMatchesValue(t *testing.T) {
	c := NewCache(4)
	stale, fresh := new(int), new(int)
	c.Put("k", fresh)
	c.Remove("k", stale)
	if v, ok := c.Get("k"); !ok || v != fresh {
		t.Error("Remove dropped an entry holding a different value")
	}
	c.Remove("k", fresh)
	if _, ok := c.Get("k"); ok || c.Stats().Entries != 0 {
		t.Error("Remove kept an entry holding the given value")
	}
}

// TestCacheSingleFlight is the single-computation proof: concurrent Do
// calls for one key run the compute function exactly once and share the
// result.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	const callers = 16
	var computes atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() (any, error) {
				computes.Add(1)
				<-gate // hold the flight open until every caller has arrived
				return "shared", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}

	// Release the computation once all other callers are blocked on the
	// flight (waiters register under the cache lock before blocking, so
	// polling the stats is race-free).
	for {
		st := c.Stats()
		if st.Shared == callers-1 {
			break
		}
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers, want 1", got, callers)
	}
	for i, v := range results {
		if v != "shared" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Shared != callers-1 {
		t.Errorf("stats = %+v, want misses=1 shared=%d", st, callers-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(ctx, "k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Errorf("retry after error: v=%v hit=%v err=%v, want fresh ok", v, hit, err)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-gate
			return "late", nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (any, error) { return nil, fmt.Errorf("must not run") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(gate)
}
