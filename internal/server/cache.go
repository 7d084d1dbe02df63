package server

import (
	"container/list"
	"sync"

	psi "github.com/psi-graph/psi"
)

// cachedAnswer is one remembered complete query answer. Entries are
// immutable after insertion: hits hand out the same slices, which no reader
// mutates (the HTTP layer only serializes them).
type cachedAnswer struct {
	kind       string
	winner     string
	found      int
	embeddings []psi.Embedding // NFV answers
	graphIDs   []int           // FTV answers, ascending
}

// resultCache is the serving layer's shared LRU result cache. It sits in
// front of Engine.Execute, keyed by the canonical query bytes plus the
// request's result limit, and remembers only complete, unkilled answers —
// so a hit is always exactly what a fresh execution of the same request
// would have been allowed to return. Safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses int64
}

// cacheEntry is the list payload: key + answer, so eviction can unmap.
type cacheEntry struct {
	key string
	ans *cachedAnswer
}

// newResultCache returns a cache bounded to max entries (max > 0).
func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached answer for key, refreshing its recency.
func (c *resultCache) get(key string) (*cachedAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

// put remembers ans under key, evicting the least-recently-used entry when
// the cache is full. A concurrent duplicate insert keeps a single copy.
func (c *resultCache) put(key string, ans *cachedAnswer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).ans = ans
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, ans: ans})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// cacheCounters is a snapshot of the cache's effectiveness counters.
type cacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Max     int   `json:"max"`
}

// counters returns a point-in-time snapshot.
func (c *resultCache) counters() cacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounters{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Max: c.max}
}
