// Package psi is a from-scratch Go implementation of the Ψ-framework from
// "Subgraph Querying with Parallel Use of Query Rewritings and Alternative
// Algorithms" (Katsarou, Ntarmos, Triantafillou — EDBT 2017), together with
// every subsystem the paper builds on: the VF2, QuickSI, GraphQL and sPath
// subgraph-isomorphism algorithms, the Grapes and GGSX filter-then-verify
// indexes, the paper's five query rewritings (ILF, IND, DND, ILF+IND,
// ILF+DND), dataset generators standing in for the paper's datasets, and
// the straggler-aware measurement methodology (WLA/QLA, max/min, speedup*).
//
// # The idea
//
// Subgraph isomorphism solvers suffer from straggler queries: inputs whose
// running time is orders of magnitude above the median. Two cheap levers
// move a straggler back into the fast regime: renumbering the query's
// vertices (an isomorphic rewriting that steers the solver's tie-breaking
// heuristics) and switching algorithms (stragglers are algorithm-specific).
// The Ψ-framework exploits both at once — it races several goroutines, each
// matching a different (algorithm, rewriting) pair, takes the first answer,
// and cancels the rest. A rewriting is a vertex ranking, not a new query:
// every attempt searches the caller's query, its matcher planning as if the
// IDs were the ranks (match.Ranked), so nothing is mapped back and no ranking
// can change the answer set.
//
// # Quick start
//
//	g := psi.MustNewGraph("store",
//		[]psi.Label{0, 1, 0, 2},
//		[][2]int{{0, 1}, {1, 2}, {2, 3}})
//	q := psi.MustNewGraph("query", []psi.Label{0, 1}, [][2]int{{0, 1}})
//
//	eng, err := psi.NewEngine(g, psi.EngineOptions{
//		Algorithms: []psi.Algorithm{psi.GraphQL, psi.SPath},
//		Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
//	})
//	res, err := eng.Query(context.Background(), q, 1000) // res.Embeddings
//
// # Execution pipeline
//
// Every query, on either engine kind, has exactly one execution body,
// Engine.run, and every entry point — Engine.Query, QueryStream,
// Plan+Execute, AnswerStream — is a few lines over it. run checks the plan,
// counts the query, pins a dataset's snapshot, records the result, launches
// the plan's arms under the budget and trims a killed answer to what reached
// the caller; only the race it launches differs by kind. For a dataset
// (FTV) query one function owns each step:
//
//	plan             Engine.Plan               policy and bandit verdict → arms:
//	                                           1 verifier (fixed, learned solo) or all
//	execute          Engine.run                snapshot, result record, budget, kill trim
//	launch           Engine.launch             the arms; solo → escalate; bandit learns
//	filter           FilterIndex.FilterStream  one scan of the one table, ascending
//	ordered verify   index.StreamVerified      pool fan-out, in-order flush
//	candidate race   core.raceInstances        arms × prepared rewritings, first wins
//	emit / collect   Engine.run                caller's emit, or QueryResult.GraphIDs
//
// Engine.run pins the store's current snapshot, and the dataset race
// (Engine.raceVerifiers) hands core.StreamFTV the snapshot's table under
// each of the arms it launches, which are verifiers.
// StreamFTV rewrites the query once per configured rewriting, under the
// snapshot's label frequencies, then runs one FilterStream → StreamVerified
// pipeline: a candidate begins its race the moment the filter surfaces it —
// every arm under every rewriting, the first finisher deciding it, as the
// paper's §8 leaves the filter intact and races in verification — and
// verified graph IDs are flushed in filter order as soon as each ID and
// every candidate before it has settled, so the caller sees the ascending
// answer incrementally. The query's winner is the verifier that decided
// most of its candidates. Around it
// sit the pieces of engine policy, each written once: the per-query budget
// (runBudgeted: a query that hits the cap comes back Killed, not as an
// error, on every entry point, with Found what already reached the caller),
// the launch of a plan's arms (launch: Mode and IndexPolicy are one
// policy — race, first or auto — that Plan turns into arms) and inside it
// solo→escalate (soloFirst: a learned solo arm that overruns its solo budget
// before surfacing output falls back to the full race). NFV (single stored
// graph) queries share all three and differ only in what is raced
// (Engine.raceAttempts):
// Racer.Race adopts the first attempt to finish — the paper's semantics,
// core.firstDone, the loop the per-candidate rewriting race runs on too —
// and Racer.RaceStream the first to emit; both run one attempt body, a
// ranked search of the caller's query.
//
// All parallelism flows through one shared bounded execution layer
// (internal/exec): a pool of persistent workers, one per CPU by default.
// The pool offers two submission modes matched to the two shapes of
// parallel work:
//
// Fan-out (hard-bounded). Independent candidate-graph verifications —
// StreamVerified's candidate loop — queue onto the workers, so at most
// pool-size candidates are in flight regardless of how many the filter
// returns: in-flight work is bounded by pool size × rewritings instead of
// candidates × rewritings. Fan-out nests: a Group opened inside a Group task,
// or from exec.Nest (Grapes/4 splitting one candidate's components inside a
// race's attempt), hands its tasks to
// idle workers or runs them on its own goroutine, never waiting for a worker,
// so one pool serves every depth of fan-out without deadlock.
//
// Races (guaranteed concurrency). The attempts inside one race (Racer.Race,
// the per-candidate rewriting race) reuse idle pool workers but are never
// queued behind a saturated pool: a race's semantics require every attempt
// to run concurrently, because the first finisher cancels the rest and a
// straggler attempt may only terminate when cancelled. When workers are
// busy, attempts run on transient goroutines whose count is bounded by the
// small, fixed attempt count of the race.
//
// Determinism: answers are assembled positionally from the filter's
// ascending candidate order, so the pooled pipeline returns IDs
// byte-identical to the sequential reference (internal/ftv.Answer) at any
// pool size. Racing itself is inherently nondeterministic in *which*
// attempt wins, never in the answer. Panics inside attempts or
// verifications are recovered and surfaced as errors rather than crashing
// the process.
//
// # Engine and streaming architecture
//
// The result path is streaming end to end. Every matcher implements
// StreamMatcher: MatchStream emits each embedding into a Sink the moment
// the backtracking search finds it, and the sink returning false stops the
// search; Match is merely the collecting wrapper, and an attempt under a
// rewriting emits the caller's query's embeddings too. On top of that contract,
// Racer.RaceStream changes the race's adoption rule from first-to-finish
// to first-to-emit — the first embedding anyone finds claims the output
// stream for its attempt and cancels every other contender — so
// first-result latency is the fastest attempt's time-to-first-embedding,
// not its time-to-full-enumeration (orders of magnitude apart for
// enumeration-heavy queries; BenchmarkEngineFirstResult against
// BenchmarkEngineFullEnumeration shows it).
// The FTV side streams too (see Execution pipeline above): each containing
// graph ID surfaces as soon as its raced verification and all earlier
// candidates settle, preserving the ascending answer order incrementally.
//
// Engine is the serving facade over all of it: a long-lived object owning
// the stored graph or dataset, the prebuilt matcher portfolio, label
// frequencies, the filtering index and its verifiers, the shared execution
// pool and the learned planning policy. Query processing splits into
// Plan — attempt-portfolio selection per the engine's Mode: a full race
// (ModeRace), the query class's learned best attempt alone with race fallback
// (ModeAuto, see Adaptive planning below), or a fixed single attempt
// (ModeSingle) — and Execute,
// which runs the plan under the engine's per-query deadline (the paper's
// kill cap, enforced through metrics.Budget; killed queries come back
// classified Hard, a query the cap killed with the cap as its time, exactly
// as the paper's methodology records them, and one the caller's earlier
// deadline killed with the time it ran):
//
//	eng, _ := psi.NewEngine(g, psi.EngineOptions{Timeout: 10 * time.Minute})
//	defer eng.Close()
//	res, _ := eng.Query(ctx, q, 1000)                  // plan + execute
//	eng.QueryStream(ctx, q, 1000,                      // streaming form
//		psi.SinkFunc(func(e psi.Embedding) bool { return consume(e) }))
//
// Matcher substrate: VF2, QuickSI, GraphQL and sPath are one backtracking
// join (internal/match: Ranked, Plan, Search) under four plans, each built on
// the query as a ranking presents it and renumbered onto the caller's. The join
// owns what the four share: the early exits (a cancelled context, an empty
// query, a query larger than the stored graph), the embedding and the
// taken state per stored vertex (which also confines a VF2 search to a
// vertex set, as Grapes verifies), the step budget, the collector, and the
// candidate loop — the anchor's image's neighbours in CSR order, else the
// query vertex's candidate set in ascending order, else every vertex with
// its label, each candidate costing a budget step and then the free, label
// and candidate-set tests and the edge check against every placed
// neighbour. A matcher contributes a static plan — the query vertex and its
// anchor at each depth — and at most one pruning rule: VF2 its ID-driven
// visit order and lookahead, QuickSI its MST sequence and degree test,
// GraphQL its signature and refinement candidate sets and greedy order,
// sPath its distance-signature sets and its path decomposition flattened to
// first occurrences, each vertex anchored on the path vertex before it.
// Embedding order and step counts are those of the four separate searches
// the join replaced, on each rewriting's permuted copy of the query
// (internal/match/testdata/golden_search.txt). The two
// matchers of the default NFV portfolio keep their per-vertex state flat and
// sorted, with no map on the stored graph or on the query: GraphQL's
// neighbour signatures are one slab of labels, each vertex's sorted at its
// CSR span, and sPath's index is one distance signature per stored
// vertex: for each radius d = 1..4, a row saying how many vertices of each
// label lie within distance d. Rows are cumulative — within d, not at
// exactly d — because that is what the filter compares: an embedding can
// only shrink distances, so a query vertex may map to a stored vertex only
// if, at every radius and for every label, it sees no more such vertices
// than the stored vertex does. Rows live in rank space: a label is its
// position in the stored graph's sorted alphabet (Graph.LabelRank), width
// is that alphabet's size, and rows are bytes. A row with k labels is
// stored dense — width one-byte counts indexed by rank — when 3k ≥ width,
// and sparse — k triples (rank high byte, rank low byte, count) in
// ascending rank — otherwise: whichever is shorter, a function of the row
// alone, and since a sparse row is strictly shorter than width a row's form
// is its length. All rows of all vertices are carved from one byte slab
// behind one offsets array (row (v, d) is entry v·radius + d−1). Around a
// well-connected vertex the rows of radius 3 and 4 hold most of the alphabet
// and are most of the index; dense, each is answered by one indexed compare
// per query label, where a sorted list would be walked end to end. Two
// sparse rows are still a two-cursor merge, refused up front when the query
// row has more labels than the stored one. Nothing allocates. The two clamps
// are sound by construction: counts saturate at 255 on both sides, which
// preserves stored ≥ query, and ranks stay 16 bits, those from 65 535 up
// sharing the last rank with their counts added, which containment label by
// label implies. Ranks are exact while the stored graph has at most 65 536
// distinct labels; counts while no query vertex sees more than 255 vertices
// of one label within the radius, which every query of fewer than 256
// vertices meets; and both keep a superset of the exact candidates
// beyond. The index is built by one batched bounded BFS
// (graph.BFSBatches): 64 sources share a machine word per vertex, so a
// level of 64 searches is one sweep over the frontier's adjacency, and each
// level's newly reached bits are counted per source in (label, vertex)
// order, which is what makes every source's ranks come out ascending with 64
// counters of scratch and nothing sized by the largest label; as a batch
// completes its rows are summed level by level straight into their final
// form. A query's signatures come from the same routine in the stored
// graph's rank space — one rank lookup per distinct query label, and a label
// the stored graph lacks means no embedding before any row is built.
// Candidate sets, in sPath and GraphQL alike, are one bitset over the stored
// vertices per query vertex (match.VertexSet): the membership test in the
// join's inner loop is a bit test, and unanchored candidates iterate in
// ascending vertex order without a sort.
//
// # Filtering-index architecture
//
// Dataset (multi-graph) queries go through one filtering index, a flat
// feature table per shard: the label sequences, sorted, each with its
// per-graph count list, and — when Grapes is served — a reference per
// posting to its location set. The paper's three methods are three names for
// it, and a name selects a verifier: the flat path-based FTV baseline ("ftv")
// and GGSX ("ggsx") verify with VF2 against whole graphs — GGSX's suffix
// tree filtered exactly as the table does — and Grapes ("grapes") within the
// components its locations leave. The table indexes each undirected label
// path once (orientation, below) and keeps its counts in packed posting
// lists read through one forward cursor (packed postings, below). Grapes'
// location info — per
// feature and graph, the set of vertices the feature's occurrences touch —
// keeps one representation from the path DFS to VF2 (ftv.LocSets): a set is a
// bitset row over its graph's vertices when it has at least two members per
// row word and an ascending vertex-ID list otherwise, whichever is smaller, a
// function of the set alone; rows and lists sit in one slab each and a
// posting refers to its set by four bytes. Verification ORs the query
// features' sets into one mask, finds the mask's connected components on the
// stored graph's own adjacency, and runs the graph's prebuilt VF2 matcher
// restricted to each component big enough for the query (a query with a
// vertex on no path is bounded by no location and is verified against the
// whole graph): no subgraph, map or builder per candidate. IndexStats reports
// the bytes the sets hold and how many took each form. The contract is the narrow
// filter-then-verify core — Name/Dataset/Filter/Verify — plus FilterStream,
// which emits surviving candidates incrementally in ascending order, and
// Stats, which reports build provenance. Construct one name's index through
// BuildIndex("ftv"|"grapes"|"ggsx"), or let a dataset Engine build its table
// for the names it serves (EngineOptions.Indexes).
//
// Index build pipeline: every build — one index, a sharded one, a dataset
// Engine's tables, a shard rebuilt on compaction — is extract once → fold
// per shard → flat postings. Each dataset graph's path features are
// extracted exactly once per build, fanned out across the execution pool,
// with locations only when Grapes is served (already in their stored form, so
// the fold appends each graph's slab to the index's and nothing is
// re-encoded); the extractor walks a label trie
// alongside its path DFS (next paragraph), so a path costs a share of one
// table probe, not a label slice and a hashed key. A worker keeps its trie
// from graph to graph — the graphs of a dataset spell mostly the same
// sequences — and a graph's features come out as the slots it counted, in
// the order it first counted them; a trie past 2^18 slots is
// sealed and the worker starts another on the same table. Graph g is routed
// to shard g mod K and every shard's table is folded from its graphs'
// features in graph-ID order: the fold interns each trie slot its graphs
// name once, parents first, into a trie of its own, whose walk is the
// snapshot format's canonical order, so posting lists — measured in a first
// pass, carved from one byte slab with no slack and filled in a second — are
// born sorted, the filter intersects them with forward cursors, the snapshot
// export is a plain walk, and a build is byte-identical at any worker count,
// whichever worker took which graph. The table is nothing but
// slabs in canonical order. Its label sequences live in a sequence directory
// (the sequences concatenated, one end each), which every shard's table
// shares: each fold makes its own, and BuildTables then gives the tables
// their union and drops the rest. A table keeps
// a presence bitmap over the directory with a running count per 64-bit word,
// one 12-byte entry per sequence it indexes with no pointer in it (where its
// list ends, the running posting count and the list's next base), the lists
// back to back and, for Grapes, one location reference per posting; a lookup
// is a binary search of the directory, a bit test and a rank that hands out a
// view of the posting slab. Cancelling the
// build's context aborts it even mid-graph (dense graphs hold billions of
// bounded simple paths). A build is therefore one extraction plus a cheap
// fold per shard, whatever the names served. IndexStats.BuildTime means
// "time until this index was usable": the extraction's wall time (each shard
// charged its graphs' share) plus the fold.
//
// Index build: set-up is path extraction — the DFS over every simple path of
// up to four edges is nearly all of a build, of a POST /graphs and of a
// compaction — so the extractor owns that DFS. Per graph it regroups the
// adjacency, in build scratch, by (neighbour label, neighbour ID) with a
// directory of label runs per vertex (after Mhedhbi & Salihoglu's
// label-partitioned adjacency lists): all extensions of a path by one run
// spell the same sequence, so a run costs one trie probe, one addition to the
// count and one update of the location set, however many neighbours it holds.
// At the deepest level — nine tenths of the DFS nodes — a run whose spelling
// is a mirror (its label is below the start vertex's, or equal to it over a
// backwards inner segment) is skipped without touching its members, so only
// oriented spellings ever get a slot there and the trie roughly halves. The
// label-run order is extraction scratch only: the stored graph's CSR
// neighbour order, and with it every matcher's embedding order, is untouched.
// The scratch — trie, slot state, adjacency, location rows and lists —
// belongs to the build: a worker reuses it from graph to graph, taking the
// graphs largest first, and all of it but the tries' slots, which the
// features name until the folds have read them, is garbage when the
// extraction returns (no package-level pool whose contents would outlive the
// build). The folds then run on the same pool, one shard per task, and a
// fold that panics fails the build with an error.
//
// Orientation: an undirected path reads as a label sequence L from one end
// and as reverse(L) from the other, and the DFS from every vertex meets it
// from both. The two spellings occur equally often in every graph —
// reversing an occurrence's vertices is a bijection — and touch the same
// vertices, so an index that stored both would hold every count and every
// Grapes location set twice. Each path is stored once, under its oriented
// spelling: the lexicographically smaller of the two (ftv.Oriented; a
// palindrome is its own mirror). The extractor still walks both directions
// (a mirror spelling is the prefix of oriented ones) but aggregates only into
// oriented trie slots, decided once per slot, and at full length skips the
// mirror direction altogether, so features, postings, location sets, the
// fold and the snapshot's index sections all halve. Queries pay for it in one place: maximality depends on
// the end a path is walked from, so a query may spell L more often than
// reverse(L); ftv.QueryFeatures folds the two into one feature under the
// oriented spelling that requires the larger count — a graph holds both
// equally often, so the candidate set is exactly the one the two separate
// lookups gave. (Orientation picks the spelling of one feature; "canonical
// order" elsewhere in this package is the lexicographic order of the
// features among themselves. They are different things.) Snapshots written
// before orientation hold both spellings; index.Restore drops a reversed
// spelling only when its oriented twin is present with identical postings,
// counts and locations, and refuses the file otherwise, since dropping an
// unmatched one would turn "occurs in these graphs" into "occurs nowhere".
//
// Packed postings: a feature's posting list is its (graph, count) pairs in
// ascending graph order as two unsigned varints each — the gap from one past
// the previous posting's graph, and the count — about two bytes a posting on
// dense graph IDs and small counts (IndexStats.Postings / PostingBytes say
// exactly). A list longer than 64 postings starts with a skip table of one
// fixed-width entry per further block of 64: the smallest graph the block
// could begin with and the block's byte offset. Every reader goes through
// one cursor (index.Cursor) whose contract is forward-only: Next steps,
// Seek(graph) moves to the first posting at or past graph — binary search
// over the skip table, then at most one block decoded — and reports the
// posting's ordinal in the list (which indexes Grapes' parallel location
// references) and its count; targets must not decrease, and a smaller one
// panics rather than report a passed-over graph as absent. The filter's
// intersection, Grapes' per-candidate location lookup and the flat index's
// copy-on-write append are all ascending, so none of them needs more. There
// is one representation: built, sharded, grown by AddGraph, compacted and
// restored tables hold the same bytes.
//
// Candidate emission is streaming-first: the decision pipeline overlaps
// filtering with verification, starting a candidate's (rewriting-raced)
// verification the moment the filter surfaces it, while containing graph
// IDs still reach the caller incrementally in exact ascending order.
//
// The paper's parallel use of alternative algorithms sits where its §8 puts
// it, in verification. A dataset Engine serving several names
// (EngineOptions.Indexes) under the race policy filters once and races, per
// candidate, the distinct verifiers the names select — "ftv" and "ggsx"
// share one — under every rewriting; the first to decide the candidate wins
// and the rest are cancelled. The query's Winner is the verifier that
// decided most of its candidates:
//
//	eng, _ := psi.NewDatasetEngine(ds, psi.EngineOptions{
//		Indexes: []string{"ftv", "grapes", "ggsx"}, // one table, two verifiers
//	})
//	defer eng.Close()
//	res, _ := eng.Query(ctx, q, 0)
//	report(res.Winner) // "FTV" or "Grapes/1"
//
// With one verifier (the default, "grapes") the engine keeps the fixed
// policy. Engine.IndexPolicy reports which policy the engine runs, and
// Counters the pipelines started (index_attempts) and the queries whose
// candidates raced verifiers (index_races).
//
// # Sharding architecture
//
// Sharding adds a data-parallel axis under the portfolio axis: instead of
// one table over the whole dataset, EngineOptions.Shards = K partitions the
// dataset round-robin over graph IDs (global ID g lives in shard g mod K, at
// position g div K within it — stable, deterministic, balanced to within one
// graph) and builds K per-shard tables behind the index.Sharded wrapper.
// Every dataset engine serves from the same internal/live store, which holds
// exactly those — a monolithic engine is the store at K = 1, where Sharded
// is its one table under another type. A static engine's K is clamped to its
// dataset, which it can never outgrow (Shards: 64 over 4 graphs serves 4
// shards); a mutable engine's is not.
//
// Queries run one filter over every shard: the query's features are
// extracted once, one posting cursor per shard scans that shard's table,
// and the caller's goroutine merges the cursors in ascending global-ID
// order. Verification routes each candidate back to the shard that owns it
// while fanning out across the execution pool — the paper's FTV design
// keeps the filter sequential and puts the parallelism in verification.
//
// The parity guarantee is absolute: sharded answers are byte-identical to
// the monolithic engine's at any K and any worker count. Filtering is a
// per-graph decision (a graph survives iff it contains every query feature
// at least as often as the query does), so partitioning cannot change the
// candidate set; the ordered merge restores the global ascending order; and
// verification is per-graph. The property is fuzzed across kinds, shard
// counts and pool sizes by the internal/index tests (TestShardedParityFuzz)
// and through the engine by TestShardedEngineRaceParity; bench/'s sharded
// workloads check every answer against the sequential oracle.
//
// Because Sharded implements the same Index contract as one table, it
// composes with everything above it unchanged: each candidate's race routes
// every verifier to the shard that owns the candidate. K>1 buys no
// filter wall-clock (expect parity, not speedup, and bench/'s
// index.sharded.merge_overhead_x for what the merge costs); the per-shard
// balance is observable via Engine.ShardBalance and the
// serving layer's /stats (shard_balance) and /metrics
// (psi_engine_shard_answers_total).
//
//	eng, _ := psi.NewDatasetEngine(ds, psi.EngineOptions{
//		Indexes: psi.IndexKinds(),
//		Shards:  4, // answers byte-identical to Shards: 1
//	})
//
// # Adaptive planning architecture
//
// Racing buys latency with work: every query pays for all the attempts
// that lose. The auto policy keeps the race's tail protection while
// recovering most of that work on repetitive traffic. A per-query-class
// bandit (internal/predict.Bandit) buckets queries by size — log2 buckets
// of vertex count, edge count and distinct labels — and keeps per-arm
// evidence for each class: race wins, solo runs, budget kills and mean
// latency, where an arm is one matcher attempt (ModeAuto on a stored
// graph) or one verifier (IndexPolicy IndexAuto on a dataset, run alone on
// every candidate).
//
// The decision rule is race-until-confident, then solo-with-audits. A
// class races while it has fewer than three successful observations
// (warmup, the constant autoMinSamples), every 16th decision thereafter
// (autoRaceEvery; staleness audits: the race re-measures every arm, so a
// drifting workload re-elects its winner), and immediately after a solo run
// was killed by the per-query budget (escalation). Otherwise it runs the arm
// with the best kill-penalized mean latency alone. Correctness never
// depends on the choice: every arm is exact, so a solo answer is
// byte-identical to the race's — the policy moves only cost and latency,
// and a solo that overruns its 50 ms solo budget (soloBudget) before
// surfacing output falls back to the full race within the same query. The evidence rules are deliberately asymmetric: a
// budget kill counts against the arm and escalates the class, while a
// caller cancellation (client disconnect, server drain) is recorded
// nowhere — disconnect storms carry no information about arm quality and
// must not poison the learned statistics.
//
//	eng, _ := psi.NewDatasetEngine(ds, psi.EngineOptions{
//		Indexes:     []string{"ftv", "grapes", "ggsx"},
//		IndexPolicy: psi.IndexAuto, // a learned verifier solo, race escalation
//	})
//	res, _ := eng.Query(ctx, q, 0)
//	res.Policy            // the decision this query ran under
//	eng.PolicyStats()     // per-arm evidence snapshot (also in /stats)
//
// Plan.Decision and QueryResult.Policy expose each query's verdict (class,
// solo vs race, reason); Counters adds policy_solo / policy_races /
// policy_escalations; PolicyStats snapshots the per-arm evidence. The
// serving layer coalesces concurrent identical queries (one execution,
// every overlapping client gets the complete answer — see below). Answer
// parity of the learned policy with always-race is
// TestDatasetEngineAutoMatchesRace and TestEngineModeAutoMatchesRace; bench/
// reports its decision cost and solo share (predict.*).
//
// # Serving architecture
//
// The serving subsystem (internal/server, fronted by cmd/psiserve) turns
// one long-lived Engine into a concurrent HTTP query service. A request's
// life is admission → plan → race → stream → drain:
//
// Admission. Every query claims a slot from a bounded limiter before any
// work starts; at capacity the request is rejected immediately with HTTP
// 429 rather than queued, so overload degrades into fast refusals instead
// of goroutine-per-request pileups. The execution pool below remains the
// only place CPU work queues.
//
// Plan and race. Admitted queries run through the Engine exactly as
// library callers do — Plan picks the attempts or verifiers, Execute
// races them — with the request's context (client disconnect, the server's
// request timeout, an explicit ?timeout_ms) flowing into the per-query
// budget, so a deadline hit surfaces as the paper's kill (killed:true with
// whatever already streamed), not as an opaque error.
//
// Stream. ?stream=1 responses are NDJSON — one line per embedding (NFV) or
// containing graph ID (FTV), flushed as the race emits it, then a summary
// line with winner provenance — so the first-to-emit latency the race wins
// reaches the wire. Collected responses are single JSON objects. Complete,
// unkilled answers land in a shared LRU result cache keyed by the
// canonical query bytes (CanonicalQueryKey); repeat queries replay from
// memory in either response mode, marked cached:true. Concurrent identical
// queries that miss the cache coalesce onto one in-flight execution: the
// first request leads, overlapping duplicates park until it finishes and
// replay its complete answer marked coalesced:true. Only complete unkilled
// answers are shared — a killed or failed leader sends each follower to
// its own execution, and a follower disconnecting never cancels the
// leader. Engine.Counters and Engine.WinCounts feed the /stats and
// /metrics endpoints, alongside the coalescing counters and the learned
// policy's per-arm statistics.
//
// Drain. Shutdown stops admission (new queries get 503, /healthz flips),
// waits for in-flight queries, and past the caller's deadline cancels
// stragglers through their request contexts — every admitted request still
// receives its terminal line, so a drain drops no in-flight responses.
//
//	eng, _ := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: psi.IndexKinds()})
//	srv := server.New(eng, server.Options{MaxInFlight: 64})
//	http.ListenAndServe(addr, srv) // POST /query, GET /stats, /metrics, /healthz
//
// See examples/serve for the full lifecycle against an in-process
// listener, and bench/ (ftv_selective, serve_mixed) for the load generators
// that measure it over HTTP.
//
// # Mutation architecture
//
// Every dataset engine serves from an internal/live store; a static one
// simply never mutates it (epoch 0 and no handles on its surface), and
// EngineOptions.Mutable opens the mutation API — AddGraph, RemoveGraph,
// ReplaceGraph — which works while queries are in flight, with one
// non-negotiable invariant: after any mutation sequence, answers are
// byte-identical to a from-scratch engine over the final dataset. The store
// hangs on four ideas:
//
// Slots. Every graph ever added occupies a permanent global slot; the
// round-robin sharding law (slot s lives in shard s mod K) then localizes
// any mutation to exactly one shard, and because slot assignment is
// monotone, an AddGraph always appends to its shard's tail — which a table
// without locations absorbs copy-on-write (index.Path.WithGraph: one merge
// pass writes the new table's entries and posting slab, copying the
// untouched lists run by run and each list the new graph's features touch
// one posting longer, in a constant number of allocations; the shards'
// shared sequence directory is kept unless the graph brings a sequence it
// lacks, and then only the inserting shard gets a superset directory, and
// the presence bitmap is rewritten only when a sequence is new to the
// shard). Generations share no posting bytes, so a predecessor's slab is
// freed once the last query holding its epoch releases it. A table with
// locations (one serving Grapes), which an insert would not extract, falls
// back to rebuilding that one shard, never the dataset; a rebuilt shard
// adopts its predecessor's directory when that holds every sequence it
// indexes, as after every compaction, and a restored store shares one
// directory across its shards as a built one does.
//
// Tombstones. RemoveGraph replaces the slot's graph with a zero-vertex
// placeholder — O(1) on the index side, since a placeholder matches no
// feature — and once a shard accumulates CompactEvery of them it compacts
// with a shard-local rebuild that sheds the dead features. Queries never
// see slots, and no wrapper hides them: index.Sharded takes the store's
// alive mask, and its one translation from shard-local IDs drops tombstones
// and renumbers live slots to the dense 0..n-1 answer IDs (rank order, so
// ascending emission survives); Verify routes a dense ID back to its slot.
//
// Epochs. Every mutation publishes a fresh immutable live.Snapshot — dense
// dataset, handles, the dense table and the label frequencies, all computed
// at install — under a bumped epoch number. It is the one epoch object: the
// engine keeps no per-epoch state, and its verifiers, handed the pinned
// snapshot's table and frequencies per query, are not rebuilt per epoch and
// own nothing. Queries take the
// current snapshot with one atomic load (live.Store.Current) and hold it to
// completion: a query that starts at epoch 5 answers epoch 5 even if ten
// mutations land mid-flight, and QueryResult.Epoch records which dataset
// version an answer describes — the epoch current when it started, not when
// it was planned.
// Mutations and snapshot saves serialize on the store's one lock; the query
// path takes none.
//
// Tables are shared across snapshot generations (a mutation to shard 2
// reuses every other shard's). None owns a resource — Grapes/4
// fans out on the engine's pool — so nothing is released when an epoch
// retires: in-flight queries finish on their snapshot, and the garbage
// collector reclaims it after them.
//
// Handles, not IDs, are the public identity: AddGraph returns a stable
// GraphHandle that survives every compaction, while dense answer IDs shift
// as earlier graphs are deleted (Engine.Handles maps between them at the
// current epoch). The serving layer exposes the whole lifecycle — POST
// /graphs, DELETE /graphs/{handle}, PUT /graphs/{handle} — keys its result
// cache and in-flight coalescing by epoch so a mutation implicitly
// invalidates every remembered answer, and reports the epoch in /healthz,
// /stats and /metrics. TestMutableEngineParityFuzz holds the invariant
// against a from-scratch rebuild, and bench/'s serve_mixed workload measures
// the payoff (live.add_ms, live.remove_ms and live.compaction_ms beside
// setup_s, the rebuild they replace) with the same parity check end to end.
//
//	eng, _ := psi.NewDatasetEngine(ds, psi.EngineOptions{
//		Indexes: []string{"ftv"},
//		Shards:  4,
//		Mutable: true,
//	})
//	h, _ := eng.AddGraph(ctx, g)     // visible to the next planned query
//	res, _ := eng.Query(ctx, q, 0)   // res.Epoch: the version it answered
//	_, _ = eng.RemoveGraph(ctx, h)   // tombstone; compaction when due
//
// # Persistence architecture
//
// Building a filtering index is the expensive part of engine construction —
// path enumeration over every dataset graph dominates start-up by orders of
// magnitude — and it is pure recomputation: the same dataset always yields
// the same arrays. Engine.SaveSnapshot therefore persists the full engine
// state to one file, and EngineOptions.Snapshot reconstructs an engine from
// that file alone (nil dataset — the snapshot carries it) that answers
// every query byte-identically to the freshly built one:
//
//	eng.SaveSnapshot("ds.psisnap")
//	cold, _ := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: "ds.psisnap"})
//
// The file (internal/snapshot) is a versioned, checksummed container: a
// section table of named, CRC-32C-guarded byte runs holding the dataset's
// CSR arrays, the shard tables' features and postings as flat arrays in
// canonical order, once per index name served (with locations under
// "grapes"), and — for mutable engines — the store's slot,
// tombstone, handle and epoch state, so mutation history and cache-keying
// epochs survive a restart and a churned-then-saved engine resumes exactly
// where it stopped. Saving and loading are one path for every dataset
// engine: the file is its store's state (snapshot.Model is a live.State),
// and a static engine's file leaves out what a store that never mutated
// implies, which keeps static files byte-for-byte what they were. Writes
// are atomic (temp file + rename); loads validate every checksum and every
// structural invariant before constructing
// anything, so a corrupt or truncated file fails closed with an error
// rather than serving from damaged state. Options given alongside Snapshot
// must agree with the file (mutability, shard count, index kinds) — a
// mismatch is an error, never a silent rebuild. Every array is a single
// contiguous length-prefixed section, which keeps the format mmap-forward:
// a later loader can map the file and page sections in lazily without a
// format change (the contract is spelled out in internal/snapshot's doc).
//
// The serving layer completes the loop: psiserve -snapshot cold-starts from
// the file when it exists (milliseconds instead of the full index build),
// saves it after a fresh build when it does not, and re-saves on demand via
// POST /snapshot. TestEngineSnapshotRoundTripStatic/Mutable hold the
// invariant query by query, and bench/'s serve_mixed workload measures the
// payoff (coldstart_s and snapshot.load_s beside setup_s) with the same
// parity check end to end.
//
// See examples/ for runnable programs, cmd/psibench for the replay of every
// table and figure of the paper, and bench/ for the repo's benchmark.
package psi
