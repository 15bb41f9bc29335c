package service

import (
	"container/list"
	"context"
	"sort"
	"strings"
	"sync"
)

// Cache is an LRU result cache with in-flight deduplication: concurrent
// Do calls for the same key share one computation (the singleflight
// pattern), and completed values are retained up to a capacity with
// least-recently-used eviction. It is the reason repeated audits of an
// unchanged dataset cost one lattice search total, not one per request.
type Cache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *cacheItem
	inflight map[string]*flight

	// Counters, guarded by mu; see CacheStats.
	hits, misses, shared, evictions int64
}

type cacheItem struct {
	key string
	val any
}

// flight is one in-progress computation awaited by >= 1 callers.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Hits counts Do calls served from a completed entry.
	Hits int64 `json:"hits"`
	// Misses counts Do calls that ran the computation.
	Misses int64 `json:"misses"`
	// Shared counts Do calls that joined another caller's in-flight
	// computation — the concurrent-duplicate case.
	Shared int64 `json:"shared"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
}

// NewCache returns a cache retaining up to capacity values (<= 0 means 128).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 128
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the value for key, computing it with compute on a miss.
// Exactly one caller computes per key at a time; concurrent callers block
// until the computation finishes and share its result. hit reports whether
// the value came from the cache or a shared flight rather than this
// caller's own computation.
//
// Errors are returned to every waiting caller and are not cached, so a
// failed computation can be retried. ctx bounds only the *waiting* — a
// compute already running is owned by the caller that started it, and its
// closure is responsible for honoring cancellation internally.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*cacheItem).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.shared++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Get returns the cached value without computing, marking it used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// insertLocked stores a value and evicts beyond capacity.
func (c *Cache) insertLocked(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
		c.evictions++
	}
}

// Put stores a value directly, marking it most recently used and evicting
// beyond capacity. The streaming append path uses it to admit
// warm-promoted analysts under their new generation's keys without a
// flight.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, val)
}

// Remove drops key's completed entry if it still holds val (a comparable
// value such as a pointer). Matching the value keeps a caller that found
// a bad entry from dropping a good one another caller has inserted since.
func (c *Cache) Remove(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(*cacheItem).val == val {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// KV is one completed cache entry, as returned by EntriesPrefix.
type KV struct {
	Key string
	Val any
}

// EntriesPrefix snapshots the completed entries whose keys start with
// prefix, sorted by key for deterministic iteration. In-flight
// computations are not included. The streaming append path enumerates a
// mutated dataset's cached analysts through this to warm-promote them to
// the new generation.
func (c *Cache) EntriesPrefix(prefix string) []KV {
	c.mu.Lock()
	out := make([]KV, 0, 4)
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			out = append(out, KV{Key: key, Val: el.Value.(*cacheItem).val})
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// RemovePrefix drops every completed entry whose key starts with prefix,
// returning the number removed. In-flight computations are untouched:
// they complete and insert, bounded by the cache's own LRU. The service
// uses this to release analysts whose dataset left the registry.
func (c *Cache) RemovePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.ll.Remove(el)
			delete(c.items, key)
			removed++
		}
	}
	return removed
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Shared:    c.shared,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
	}
}
