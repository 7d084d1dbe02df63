// Package index defines the single filtering-index contract shared by the
// repo's alternative filter-then-verify methods — the path-based FTV baseline
// and GGSX (this package), and Grapes — the one flat feature table all three
// keep their features in (path.go), and the plumbing every implementation
// used to duplicate: presence/frequency pruning over query features, pooled
// deterministic builds, and the streaming filter→verify pipeline.
//
// The contract exists so the Engine can treat filtering indexes exactly like
// matching algorithms: as interchangeable alternatives to race. The paper's
// thesis is that parallel use of alternatives beats committing to any single
// strategy; GRAPES and GGSX are precisely the "alternative algorithms" its
// portfolio drops in, so they must be swappable — and raceable — behind one
// interface.
//
// Implementations register a builder under a kind name ("ftv", "grapes",
// "ggsx") at init time; BuildGrid, the one build pipeline (build.go),
// extracts a dataset's path features once and folds every requested kind and
// shard from them, so callers that import the implementation packages can
// construct any index — or a whole portfolio — uniformly.
package index

import (
	"context"
	"sync"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Index is the unified filtering-index contract. It extends the ftv
// filter-then-verify core with streaming candidate emission (so verification
// can start before filtering finishes) and build/shape statistics (so a
// racing Engine can report per-index provenance). Implementations are safe
// for concurrent queries once built.
type Index interface {
	ftv.Index

	// FilterStream emits the IDs of graphs that may contain q, in the same
	// ascending order Filter returns, but incrementally: each candidate is
	// handed to emit as soon as it is known to survive every query feature,
	// without waiting for the remaining graphs to be checked. emit returning
	// false abandons the remaining work; a cancelled ctx ends the stream
	// with the context's error.
	FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error

	// Stats reports the index's build provenance and shape.
	Stats() Stats

	// Close releases any resources the index owns. No built-in kind owns
	// one, so for them it is a no-op; the method stays for indexes defined
	// outside this repository (psi.FilterIndex is public).
	Close()
}

// Inserter is the optional incremental-maintenance capability of an index:
// WithGraph derives a NEW index over the old dataset plus one appended graph
// without re-extracting the features of the existing graphs. The receiver is
// left untouched — concurrent queries against it keep their answers — so a
// mutable dataset layer can swap the returned index in copy-on-write style.
// Kinds that cannot append cheaply (Grapes, whose locations an insert does not
// extract) simply do not implement it and are rebuilt shard-locally instead,
// together, from one feature extraction.
type Inserter interface {
	WithGraph(ctx context.Context, g *graph.Graph) (Index, error)
}

// Stats describes a built index. The json tags fix the serialized schema
// (snake_case, durations as nanoseconds) of the /stats endpoint.
type Stats struct {
	// Name is the instance name as reported by Index.Name.
	Name string `json:"name"`
	// Kind is the registered builder kind ("ftv", "grapes", "ggsx").
	Kind string `json:"kind"`
	// Graphs is the number of indexed dataset graphs.
	Graphs int `json:"graphs"`
	// MaxPathLen is the maximum indexed path length in edges.
	MaxPathLen int `json:"max_path_len"`
	// Features is the number of distinct path features the index holds:
	// undirected label paths, each stored under its oriented spelling only,
	// one entry each in the kind's flat table. A Sharded index reports its
	// shards' sum, which counts a feature once per shard holding it, not the
	// distinct features of the whole dataset.
	Features int `json:"features"`
	// BuildTime is the wall-clock time until the index was usable: the
	// feature extraction it was folded from — shared with every other kind
	// and shard of the same build, and counted in each; a shard of a grid
	// is charged its graphs' share of it — plus its own fold.
	BuildTime time.Duration `json:"build_ns"`
	// BuildWorkers is the extraction parallelism the build ran with.
	BuildWorkers int `json:"build_workers"`
	// Postings is the number of (feature, graph) occurrence counts stored,
	// and PostingBytes the bytes of the packed lists holding them, skip
	// tables included; a Sharded index reports its shards' sums.
	Postings     int64 `json:"postings"`
	PostingBytes int64 `json:"posting_bytes"`
	// LocationBytes is the memory held by the location sets of a kind that
	// keeps them (Grapes): the row slab, the list slab and one 4-byte
	// reference per posting. LocationRows and LocationLists count the sets
	// stored as bitset rows over their graph's vertices and as vertex-ID
	// lists — whichever is smaller for each set (ftv.RowForm). All zero for
	// kinds without locations; a Sharded index reports its shards' sums.
	LocationBytes int64 `json:"location_bytes,omitempty"`
	LocationRows  int   `json:"location_rows,omitempty"`
	LocationLists int   `json:"location_lists,omitempty"`
	// ShardCount is the partition count of a Sharded index of K >= 2 shards
	// (0 for monolithic indexes and for K = 1, which reports its one
	// shard's statistics as its own).
	ShardCount int `json:"shard_count,omitempty"`
	// Shards holds the per-shard build statistics of a Sharded index of
	// K >= 2 shards, in shard order — the shard-balance breakdown a /stats
	// endpoint exposes.
	Shards []Stats `json:"shards,omitempty"`
}

// Options configures a build; the shard count is an argument of its own
// (BuildGrid, BuildSharded), since only the callers that partition choose it.
type Options struct {
	// MaxPathLen is the maximum indexed path length in edges; 0 means
	// ftv.DefaultMaxPathLen (4), the paper's setting.
	MaxPathLen int
	// Workers is the per-index verification parallelism knob (the paper's
	// Grapes/1 vs Grapes/4): above 1, Grapes fans a candidate's components
	// out on Pool. Indexes without internal verification parallelism ignore
	// it. 0 means 1.
	Workers int
	// Pool is the execution pool feature extraction fans out on during the
	// build, and the one Grapes' component fan-out runs on afterwards; nil
	// selects the shared default pool. Build output is identical for every
	// pool size.
	Pool *exec.Pool
}

// LookupFunc resolves one query feature's postings — labels is an oriented
// spelling, the only kind indexed (ftv.Oriented); the list is empty when the
// label sequence is absent from every indexed graph.
type LookupFunc func(labels []graph.Label) PostingList

// FilterByFeatures is the presence-and-frequency pruning every path index
// shares: a graph survives iff it contains each query feature at least as
// often as the query does. Results are ascending graph IDs; an empty feature
// set (edgeless query) keeps every graph. It is the collecting form of
// StreamByFeatures.
func FilterByFeatures(nGraphs int, feats []ftv.QueryFeature, lookup LookupFunc) []int {
	var out []int
	// The background context never cancels, so the error is always nil.
	_ = StreamByFeatures(context.Background(), nGraphs, feats, lookup, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// StreamByFeatures is the streaming form of FilterByFeatures: surviving
// graph IDs are emitted in ascending order as soon as each graph has been
// checked against every feature — an intersection of sorted posting lists
// driven by the rarest feature's, so per-graph work is bounded by the
// feature count. emit returning false abandons the scan; ctx cancellation
// ends it with the context's error.
func StreamByFeatures(ctx context.Context, nGraphs int, feats []ftv.QueryFeature, lookup LookupFunc, emit func(graphID int) bool) error {
	c := newFeatureCursor(nGraphs, feats, lookup)
	for {
		id, ok, err := c.next(ctx)
		if !ok {
			return err
		}
		if !emit(id) {
			return nil
		}
	}
}

// featureCursor is StreamByFeatures' intersection as a pull cursor: next
// yields the surviving graph IDs one at a time, in ascending order, so a
// caller can interleave several scans — Sharded's merge holds one per shard.
type featureCursor struct {
	needs  []need // nil for a query without features
	driver int    // the rarest feature's position in needs
	id     int    // without features: the next graph to yield
	n      int    // the graph count
	done   bool
}

// need is one query feature's posting cursor and the count a graph must
// reach.
type need struct {
	cur Cursor
	min int32
}

// newFeatureCursor opens the intersection of feats' posting lists over n
// graphs; lookup resolves each feature's list.
func newFeatureCursor(n int, feats []ftv.QueryFeature, lookup LookupFunc) featureCursor {
	c := featureCursor{n: n}
	if len(feats) == 0 {
		return c // no path features (edgeless query): every graph is a candidate
	}
	c.needs = make([]need, len(feats))
	// Drive the scan with the rarest feature's list; it ascends, so every
	// other list is read by a cursor that only moves forward.
	shortest := 0
	for i, f := range feats {
		p := lookup(f.Labels)
		if p.Len() == 0 {
			return featureCursor{done: true} // feature absent everywhere: no candidates
		}
		c.needs[i] = need{cur: p.Cursor(), min: f.Count}
		if i == 0 || p.Len() < shortest {
			c.driver, shortest = i, p.Len()
		}
	}
	return c
}

// next returns the next surviving graph ID, or false once there is none. It
// polls ctx once per graph it considers: every graph without features, else
// every driver posting that passes its count; a cancelled ctx ends the scan
// with the context's error.
func (c *featureCursor) next(ctx context.Context) (int, bool, error) {
	if c.done {
		return 0, false, nil
	}
	if c.needs == nil {
		if c.id == c.n {
			c.done = true
			return 0, false, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		c.id++
		return c.id - 1, true, nil
	}
	d := &c.needs[c.driver]
	for d.cur.Next() {
		if d.cur.Count() < d.min {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		ok := true
		for i := range c.needs {
			if i == c.driver {
				continue
			}
			n := &c.needs[i]
			_, count, found := n.cur.Seek(d.cur.Graph())
			if n.cur.Done() {
				c.done = true // a required feature occurs in no graph from here on
				return 0, false, nil
			}
			if !found || count < n.min {
				ok = false
				break
			}
		}
		if ok {
			return int(d.cur.Graph()), true, nil
		}
	}
	c.done = true
	return 0, false, nil
}

// StreamVerified pipelines filtering into verification: every candidate the
// filter emits starts verifying on a pool worker immediately, while the
// filter keeps scanning — the streaming-first shape of the match pipeline
// applied to the FTV decision problem. Verified IDs are handed to emit in
// filter order (ascending for contract-conforming filters) as soon as each
// ID and every candidate before it has been decided. emit is called from
// verification goroutines, one call at a time and outside the pipeline's
// internal lock; it should still not block, since the ordered stream waits
// for it. emit returning false cancels the outstanding work and ends the
// stream with a nil error; the first verification error cancels the rest and
// is returned; a ctx cancellation that cut the filter short is returned as
// the context's error, never silently surfaced as a complete (empty) answer.
//
// The filter runs on the caller's goroutine, with the pool providing
// backpressure: a verification waits for a free worker, unless ctx descends
// from a Group task's, which makes the verification group nested (exec.Group).
func StreamVerified(ctx context.Context, p *exec.Pool, filter func(ctx context.Context, emit func(graphID int) bool) error, emit func(graphID int) bool, check func(ctx context.Context, graphID int) (bool, error)) error {
	if p == nil {
		p = exec.Default()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	const (
		pending = uint8(iota)
		hit
		miss
	)
	var (
		mu        sync.Mutex
		ids       []int
		state     []uint8
		next      int // first undecided position: everything before is settled
		stopped   bool
		flushing  bool // a task is handing the decided prefix to emit
		truncated bool
	)
	emitUnlocked := func(id int) bool {
		mu.Unlock()
		defer mu.Lock() // re-taken even if emit panics: the task's deferred Unlock needs it held
		return emit(id)
	}
	grp := p.NewGroup(sctx)
	ferr := filter(sctx, func(id int) bool {
		if grp.Context().Err() != nil {
			// Cancelled (caller ctx, emit stop, or a verification error):
			// stop scanning; Wait sorts out which it was.
			truncated = true
			return false
		}
		mu.Lock()
		pos := len(ids)
		ids = append(ids, id)
		state = append(state, pending)
		mu.Unlock()
		grp.Go(func(gctx context.Context) error {
			ok, err := check(gctx, id)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return nil
			}
			if ok {
				state[pos] = hit
			} else {
				state[pos] = miss
			}
			if flushing {
				return nil // the active flusher picks this position up
			}
			// Flush the newly contiguous decided prefix in filter order.
			// emit runs with the state lock released — a slow consumer (a
			// server flushing a line per ID) must not stall the filter and
			// the other verifications — and flushing keeps it to one
			// goroutine at a time, so emissions stay serialized and ordered.
			flushing = true
			for next < len(ids) && state[next] != pending {
				id, isHit := ids[next], state[next] == hit
				next++
				if isHit && !emitUnlocked(id) {
					stopped = true
					cancel()
					break
				}
			}
			flushing = false
			return nil
		})
		return true
	})
	werr := grp.Wait()
	mu.Lock()
	wasStopped := stopped
	mu.Unlock()
	if wasStopped {
		return nil
	}
	if werr != nil {
		return werr
	}
	if ferr != nil {
		return ferr
	}
	if truncated {
		// The filter was cut short by cancellation without reporting it
		// (its emit just returned false); a truncated scan must not read
		// as a completed empty one.
		return ctx.Err()
	}
	return nil
}

// AnswerStream runs the streaming decision pipeline over one index: filter
// and verification overlap through StreamVerified, and each containing graph
// ID reaches emit incrementally in ascending order. p sizes the verification
// fan-out (nil: shared default pool).
func AnswerStream(ctx context.Context, x Index, q *graph.Graph, p *exec.Pool, emit func(graphID int) bool) error {
	return StreamVerified(ctx, p,
		func(fctx context.Context, femit func(int) bool) error {
			return x.FilterStream(fctx, q, femit)
		},
		emit,
		func(gctx context.Context, id int) (bool, error) {
			return x.Verify(gctx, q, id)
		})
}

// Answer is the collecting form of AnswerStream: ascending IDs of dataset
// graphs containing q, identical to ftv.Answer over the same index.
func Answer(ctx context.Context, x Index, q *graph.Graph, p *exec.Pool) ([]int, error) {
	var out []int
	err := AnswerStream(ctx, x, q, p, func(id int) bool {
		out = append(out, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
