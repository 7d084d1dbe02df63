package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is the serving layer's one memory of answers, keyed by
// Server.cacheKey (dataset epoch, result limit, canonical query bytes). An
// entry under a key is in one of two states:
//
//   - in flight: a leader request is executing the query and followers
//     with the same key park on the entry's done channel (coalescing);
//   - remembered: a complete, unkilled answer held in a bounded LRU and
//     replayed to later requests (caching).
//
// One map and one mutex hold both, so two requests share an execution
// exactly when they would share a remembered answer. In-flight entries are
// never evicted and not counted as entries; only remembered ones are. With
// max 0 the memory only coalesces: a finished flight is unmapped, never
// remembered. Safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // remembered entries, front = most recently used
	entries map[string]*cacheEntry

	hits, misses int64
}

// cacheEntry is one key's entry. ans is written once, under mu, before done
// is closed, and never changes afterwards: followers read it after done,
// hits under mu, and every reader only serializes it.
type cacheEntry struct {
	key string
	// done is closed when the flight finishes (nil on an entry put
	// straight into the LRU, which no follower ever waits on).
	done chan struct{}
	// ans is the complete answer the leader sent, or nil when it had
	// nothing shareable (error, kill, client gone mid-stream) and each
	// follower must run the query itself.
	ans *QueryResponse
	// el is the entry's LRU element once remembered, nil while in flight.
	el *list.Element
	// waiters counts the followers parked on done, for observability and
	// for tests that hold a leader until its followers arrive.
	waiters atomic.Int32
}

// newResultCache returns a memory remembering up to max answers (max 0:
// coalesce only).
func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*cacheEntry),
	}
}

// lookup resolves key to one of three outcomes: a remembered answer (a hit,
// its recency refreshed), an in-flight entry to follow (leader false; wait
// on done, then read ans), or leadership of a new flight (leader true; the
// caller executes and must call finish exactly once).
func (c *resultCache) lookup(key string) (ans *QueryResponse, e *cacheEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.el != nil {
			c.hits++
			c.ll.MoveToFront(e.el)
			return e.ans, nil, false
		}
		c.misses++
		e.waiters.Add(1)
		return nil, e, false
	}
	c.misses++
	e = &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	return nil, e, true
}

// finish completes the leader's flight: it publishes ans (nil when there is
// nothing shareable), remembers it when the memory keeps answers, and
// releases the followers. An unremembered flight is unmapped before done is
// closed, so a request arriving afterwards starts a fresh flight.
func (c *resultCache) finish(e *cacheEntry, ans *QueryResponse) {
	c.mu.Lock()
	e.ans = ans
	if ans != nil && c.max > 0 {
		c.remember(e)
	} else {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// put remembers the complete answer of a request that ran outside any flight
// (a follower whose leader had nothing shareable). An entry already under
// key — remembered, or a newer flight whose leader will publish — is kept.
func (c *resultCache) put(key string, ans *QueryResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok || c.max == 0 {
		return
	}
	c.remember(&cacheEntry{key: key, ans: ans})
}

// remember maps e as a remembered entry at the front of the LRU, evicting
// the least recently used remembered entry past max. Callers hold mu.
func (c *resultCache) remember(e *cacheEntry) {
	c.entries[e.key] = e
	e.el = c.ll.PushFront(e)
	if c.ll.Len() > c.max {
		oldest := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
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
