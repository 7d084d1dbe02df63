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
// Every lever built on top — racing, sharding, the learned policy, online
// mutation, snapshots — changes cost and latency, never the answer.
//
// # Usage
//
// The package's examples are its usage documentation, and go test runs each
// one and checks its output:
//
//   - Example_quickstart: a stored-graph Engine answering one query as a
//     collected race, a streamed race, a first-result decision, and a plan
//     inspected before Execute runs it.
//   - Example_stragglers: random isomorphic instances and the structured
//     rewritings of a query find the same embeddings.
//   - Example_socialnet: GraphQL alone, sPath alone and their race find the
//     same number of embeddings.
//   - Example_proteins: a dataset Engine verifying the query as given and
//     one racing three rewritings per candidate return the same graph IDs.
//   - ExampleEngine_AddGraph: a mutable, sharded dataset Engine whose next
//     query sees an added graph, under a new epoch.
//   - internal/server's Example_serve: the HTTP lifecycle of cmd/psiserve —
//     a streamed query, a cached repeat, /stats and a graceful drain.
//
// Each prints only what no scheduler can change: which attempt wins a race,
// and when, varies from run to run; the answer does not.
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
//	candidate race   core.RaceInstances        arms × prepared rewritings, first wins
//	emit / collect   Engine.run                caller's emit, or QueryResult.GraphIDs
//
// core.StreamFTV rewrites the query once per configured rewriting, under the
// pinned snapshot's label frequencies, and runs one FilterStream →
// StreamVerified pipeline: a candidate begins its race the moment the filter
// surfaces it — every arm under every rewriting, the first finisher deciding
// it, as the paper's §8 leaves the filter intact and races in verification —
// and verified IDs are flushed in filter order, so the caller sees the
// ascending answer incrementally and byte-identical to the sequential
// reference (index.SequentialAnswer) at any pool size. The query's Winner is
// the verifier that decided most of its candidates. A stored-graph (NFV)
// query differs only in what is raced (Engine.raceAttempts): Racer.Race
// adopts the first attempt to finish, the paper's semantics, and
// Racer.RaceStream the first to emit, so first-result latency is the fastest
// attempt's time to its first embedding (BenchmarkEngineFirstResult against
// BenchmarkEngineEnumerate10k). Around both sit the pieces of engine policy,
// each written once in the root package: the per-query budget (runBudgeted:
// a query that hits the cap comes back Killed, not as an error, on every
// entry point), the launch of a plan's arms (launch: Mode and IndexPolicy are
// one policy — race, first or auto — that Plan turns into arms) and
// solo→escalate (soloFirst).
//
// # Layers
//
// Each layer's package or file doc comment holds its detail; this is the map.
//
// Matcher substrate. VF2, QuickSI, GraphQL and sPath are one backtracking
// join under four plans (internal/match, join.go): the join owns the early
// exits, the embedding and taken-vertex state, the step budget, the
// collector and the candidate loop, and a matcher contributes its plan and
// at most one pruning rule (internal/vf2, internal/quicksi, internal/gql,
// internal/spath; sPath's byte-row distance signatures are described in
// internal/spath's signature.go). internal/match/testdata/golden_search.txt
// pins every matcher's embedding order and step count (TestGoldenSearch).
//
// Execution. All parallelism flows through one bounded pool (internal/exec)
// with two submission modes: a hard-bounded fan-out for candidate
// verifications, which nests without deadlock, and guaranteed concurrency
// for the attempts of one race. Panics inside attempts or verifications come
// back as errors. The races and their two adoption loops are internal/core.
//
// Filtering index. Dataset queries go through one filtering index,
// index.Sharded (internal/index): a flat path-feature table per shard,
// packed posting lists read through one forward cursor (postings.go), and
// Grapes' location sets when "grapes" is served. The paper's three methods
// are three names for it, and a name selects a verifier (verify.go): "ftv"
// and "ggsx" run VF2 on whole graphs, "grapes" within the components its
// locations leave. Every build is one feature extraction folded per shard
// (build.go); the features — each undirected path once, under its oriented
// spelling — and their extraction are internal/ftv. Build one name's index
// with BuildIndex or NewShardedIndex, or let a dataset Engine build it for
// the names it serves (EngineOptions.Indexes). All three names give the
// answers of one brute-force oracle, match.Reference, over the datasets and
// queries internal/difftest draws (TestDifferential, TestPipelineParity).
//
// Sharding. EngineOptions.Shards = K routes global graph g to shard g mod K
// (internal/index, sharded.go). Queries run one filter over every shard,
// merged in ascending global-ID order on the caller's goroutine, and
// verification routes each candidate to its shard, so answers are
// byte-identical at any K and pool size (TestDifferential,
// TestShardedEngineRaceParity). K > 1 buys no filter wall-clock; the
// per-shard balance is Engine.ShardBalance.
//
// Adaptive planning. ModeAuto (stored graph) and IndexAuto (dataset) keep
// the race's tail protection while recovering most of its work on
// repetitive traffic: a per-query-class bandit (internal/predict) races a
// class until it is confident, then runs the class's best arm alone with
// periodic audit races, and a solo run that overruns its solo budget falls
// back to the race within the same query (the constants are in options.go).
// Every arm is exact, so the policy moves only cost (TestDatasetEngineAutoMatchesRace,
// TestEngineModeAutoMatchesRace, TestLaunchPolicyIsOneAcrossEngineKinds).
//
// Serving. internal/server, fronted by cmd/psiserve, turns one Engine into
// an HTTP query service: admission control, per-request deadlines, NDJSON
// streaming, a result cache and in-flight coalescing keyed by epoch,
// /stats and /metrics, mutation endpoints, and a graceful drain.
//
// Mutation. Every dataset engine serves from an internal/live store, which
// EngineOptions.Mutable opens to AddGraph, RemoveGraph and ReplaceGraph while
// queries run: permanent slots, tombstones compacted per shard, and
// immutable epoch snapshots that a query pins for its whole life
// (QueryResult.Epoch). Answers equal a from-scratch engine over the same
// epoch's dataset (TestMutableEngineParityFuzz).
//
// Persistence. Engine.SaveSnapshot writes a dataset engine's full state to
// one versioned, checksummed file, and EngineOptions.Snapshot restores an
// engine from it alone, answering byte-identically without a rebuild
// (internal/snapshot; TestEngineSnapshotRoundTripStatic,
// TestEngineSnapshotRoundTripMutable, TestSnapshotFromParentCommit).
//
// cmd/psibench replays every table and figure of the paper, and bench/ is the
// repo's benchmark.
package psi
