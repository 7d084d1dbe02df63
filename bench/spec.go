package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/psi-graph/psi/internal/gen"
)

// metricDef names one metric of the benchmark. The two tables below are the
// single source of the names: BENCHMARK.json is generated from them
// (-manifest) and a test keeps the committed file in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by; 0: not compared
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd are the metrics the driver gates. Every workload reports every
// one of them, and each must repeat within its bound from run to run, so
// only metrics that exist on all four workloads and are steady on the
// reference box live here. The window metrics (latency, throughput, CPU and
// allocation per query) are measured in every run but spread 10-30% there,
// beyond any bound the driver allows: by the issue's own rule they are
// demoted to perLayer, where they keep their names, and carry an advisory
// bound that -compare applies. README.md has the measured spreads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_after_setup_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// advisoryBound is what -compare allows the demoted window metrics.
const advisoryBound = 0.25

const (
	onNFV        = "nfv_race"
	onStragglers = "ftv_stragglers"
	onSelective  = "ftv_selective"
	onMixed      = "serve_mixed"
)

var (
	indexKinds = []string{"ftv", "grapes", "ggsx"}
	algoNames  = []string{"gql", "spath", "vf2", "quicksi"}
	// winLabels are the race contenders whose win share is reported: the
	// default NFV attempt portfolio and the three index pipelines.
	winLabels = []string{"gql-orig", "gql-dnd", "spa-orig", "spa-dnd", "ftv", "grapes", "ggsx"}
)

// perLayer are the single-layer metrics, grouped by the repo package they
// measure from outside. A workload that does not exercise a layer reports 0
// for it (the README has the workload × layer table).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	// The window metrics: end-to-end in kind, demoted for their spread.
	window := "end-to-end, measured over the window; demoted: spreads 10-30% between runs on the reference box"
	for _, d := range []metricDef{
		{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "query_tail_ms", Unit: "ms", Better: "lower"},
		{Name: "first_result_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "first_result_tail_ms", Unit: "ms", Better: "lower"},
		{Name: "throughput_qps", Unit: "1/s", Better: "higher"},
		{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},
		{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower"},
	} {
		d.Bound, d.Moves = advisoryBound, window
		out = append(out, d)
	}
	// End-to-end metrics demoted by the driver's contract.
	add("fail_ratio", "ratio", "lower", "end-to-end; 0 on correct code, so it cannot carry a relative bound")
	add("mutation_p50_ms", "ms", "lower", "end-to-end on "+onMixed+" only (due time to response)")
	add("mutation_p90_ms", "ms", "lower", "end-to-end on "+onMixed+" only (tail the sample supports)")
	add("coldstart_s", "s", "lower", "end-to-end on "+onMixed+" only (snapshot file to first answer)")
	add("load.generator_late_ms", "ms", "lower", "none: how late the scheduled writer sent, worst case; large values void mutation_* on "+onMixed)

	add("graph.parse_us", "us", "lower", "first_result_p50_ms on "+onSelective+", "+onMixed)
	add("psi.plan_us", "us", "lower", "query_p50_ms on "+onSelective+", "+onNFV)
	add("psi.engine_overhead_us", "us", "lower", "query_p50_ms on "+onSelective+", "+onNFV)
	add("rewrite.apply_us", "us", "lower", "query_tail_ms on "+onNFV)
	add("rewrite.win_share", "ratio", "higher", "query_tail_ms on "+onNFV)
	for _, a := range algoNames {
		add(a+".match_p50_us", "us", "lower", "query_p50_ms, cpu_ms_per_query on "+onNFV)
		add(a+".match_p99_us", "us", "lower", "query_tail_ms, cpu_ms_per_query on "+onNFV)
	}
	raceMoves := "query_p50_ms, query_tail_ms, cpu_ms_per_query on " + onNFV + ", " + onStragglers + "; none on " + onSelective
	add("core.race_overhead_x", "x", "lower", raceMoves)
	add("core.race_tail_gain_x", "x", "higher", raceMoves)
	add("core.race_cpu_x", "x", "lower", raceMoves)
	add("core.attempts_per_answer", "count", "lower", raceMoves)
	add("core.index_attempts_per_answer", "count", "lower", raceMoves)
	for _, l := range winLabels {
		add("core.win_share."+l, "ratio", "higher", raceMoves)
	}
	add("exec.group_dispatch_us", "us", "lower", "query_p50_ms on "+onSelective)
	add("exec.cpu_per_wall", "x", "higher", "query_p50_ms, throughput_qps on "+onStragglers+", "+onNFV)
	add("exec.parallel_speedup_x", "x", "higher", "query_p50_ms, throughput_qps on "+onStragglers+", "+onNFV)
	for _, k := range indexKinds {
		p := "index." + k + "."
		add(p+"build_s", "s", "lower", "setup_s on FTV workloads")
		add(p+"features", "count", "lower", "setup_s, heap_after_setup_mb on FTV workloads")
		add(p+"heap_mb", "MB", "lower", "heap_after_setup_mb on FTV workloads")
		add(p+"filter_us", "us", "lower", "first_result_p50_ms on "+onSelective)
		add(p+"candidates_per_query", "count", "lower", "first_result_p50_ms on "+onSelective)
		add(p+"filter_precision", "ratio", "higher", "first_result_p50_ms on "+onSelective)
		add(p+"verify_us_per_candidate", "us", "lower", "query_p50_ms on "+onStragglers)
		add(p+"verify_p99_us", "us", "lower", "query_tail_ms on "+onStragglers)
		add(p+"answer_us", "us", "lower", "query_p50_ms, query_tail_ms on "+onStragglers)
	}
	add("index.sharded.filter_us", "us", "lower", "first_result_p50_ms on "+onSelective)
	add("index.sharded.merge_overhead_x", "x", "lower", "first_result_p50_ms on "+onSelective)
	add("ftv.extract_us_per_graph", "us", "lower", "setup_s everywhere, mutation_p50_ms on "+onMixed)
	add("ftv.query_features_us", "us", "lower", "first_result_p50_ms on "+onSelective)
	autoMoves := "cpu_ms_per_query on " + onStragglers + " if auto becomes the default; informational"
	add("predict.decide_us", "us", "lower", autoMoves)
	add("predict.solo_share", "ratio", "higher", autoMoves)
	add("predict.escalation_ratio", "ratio", "lower", autoMoves)
	add("predict.attempts_per_answer", "count", "lower", autoMoves)
	liveMoves := "mutation_p50_ms, mutation_p90_ms, query_tail_ms on " + onMixed + "; none elsewhere"
	add("live.add_ms", "ms", "lower", liveMoves)
	add("live.remove_ms", "ms", "lower", liveMoves)
	add("live.compaction_ms", "ms", "lower", liveMoves)
	add("live.compactions", "count", "lower", liveMoves)
	add("live.query_slowdown_x", "x", "lower", liveMoves)
	add("snapshot.save_s", "s", "lower", "coldstart_s on "+onMixed)
	add("snapshot.load_s", "s", "lower", "coldstart_s on "+onMixed)
	add("snapshot.file_mb", "MB", "lower", "coldstart_s on "+onMixed)
	add("snapshot.bytes_per_dataset_byte", "ratio", "lower", "coldstart_s on "+onMixed)
	add("server.overhead_us", "us", "lower", "query_p50_ms on "+onSelective)
	add("server.cache_hit_ratio", "ratio", "higher", "query_p50_ms on "+onMixed)
	add("server.cached_reply_us", "us", "lower", "query_p50_ms on "+onMixed)
	add("server.rejected_ratio", "ratio", "lower", "fail_ratio")
	add("server.coalesced", "count", "lower", "none: one reader cannot coalesce, expected 0")
	add("trace.coverage", "ratio", "higher", "none: decomposed layer time / end-to-end time, reported not gated")
	return out
}

// workloadSpec is one workload's shape. The shapes are the issue's; the
// request counts follow from -seconds.
type workloadSpec struct {
	Name string
	Why  string

	// Dataset: one stored graph (NFV) or a synthetic multi-graph dataset
	// (FTV) plus Spare graphs the writer ingests. The dataset is the fixed
	// part of a workload, like the paper's yeast or PPI files; -seed draws
	// the queries, their order and the mutation stream.
	Single *gen.SingleConfig
	Synth  *gen.SyntheticConfig
	Spare  int

	Sizes   []int // query sizes in edges, equal shares of the pool
	Pool    int   // distinct queries
	Clients int   // closed-loop clients

	Indexes      []string
	Shards       int
	Mutable      bool
	CompactEvery int
	ServerCache  bool // server result cache on (and requests may use it)

	SetupReps   int           // set-ups timed per run; setup_s is their median
	TailPct     float64       // percentile reported as query_tail_ms
	TraceStride int           // every n-th pool query joins the traced pass
	MutateEvery time.Duration // writer schedule (serve_mixed)
	ZipfDraws   int           // reader sequence length per pass (serve_mixed)
}

// datasetSeed fixes every workload's dataset; see workloadSpec.
const datasetSeed = 20170321

func workloads() []workloadSpec {
	yeast := gen.YeastLikeAt(gen.Paper)
	return []workloadSpec{
		{
			Name:   onNFV,
			Why:    "paper's NFV race on a yeast-scale graph: matchers, rewrite and core.Racer do all the work, index/server/live none",
			Single: &yeast,
			Sizes:  []int{8, 16, 24}, Pool: 512, Clients: 1,
			SetupReps: 5, TailPct: 99, TraceStride: 8,
		},
		{
			Name:  onStragglers,
			Why:   "4 labels defeat the filter, so verification and the three-index race dominate and the paper's stragglers appear",
			Synth: &gen.SyntheticConfig{NumGraphs: 40, AvgNodes: 300, NodeSpread: 100, Density: 8.0 / 300, Labels: 4},
			Sizes: []int{8, 12, 16}, Pool: 256, Clients: 1,
			Indexes: indexKinds, Shards: 1,
			SetupReps: 1, TailPct: 95, TraceStride: 8,
		},
		{
			Name:  onSelective,
			Why:   "8 labels make the filter selective, so features, postings, shard merge, pool dispatch and HTTP are the request; matchers little",
			Synth: &gen.SyntheticConfig{NumGraphs: 300, AvgNodes: 50, NodeSpread: 16, Density: 5.0 / 50, Labels: 8},
			Sizes: []int{4, 8, 12, 16}, Pool: 512, Clients: 2,
			Indexes: []string{"ftv"}, Shards: 2,
			SetupReps: 3, TailPct: 99, TraceStride: 4,
		},
		{
			Name:  onMixed,
			Why:   "same index layer under copy-on-write inserts, tombstones and compaction beside Zipf reads through the epoch-keyed cache",
			Synth: &gen.SyntheticConfig{NumGraphs: 200, AvgNodes: 50, Density: 5.0 / 50, Labels: 8},
			Spare: 60,
			Sizes: []int{4, 8, 12, 16}, Pool: 64, Clients: 1,
			Indexes: []string{"ftv"}, Shards: 4, Mutable: true, CompactEvery: 4, ServerCache: true,
			SetupReps: 3, TailPct: 99, TraceStride: 1,
			MutateEvery: 250 * time.Millisecond, ZipfDraws: 2048,
		},
	}
}

// smoke shrinks a workload to a shape that runs in well under a second, so
// `go test` drives every code path without the measured windows.
func (w workloadSpec) smoke() workloadSpec {
	if w.Single != nil {
		c := gen.YeastLikeAt(gen.Tiny)
		w.Single = &c
	}
	if w.Synth != nil {
		c := *w.Synth
		c.NumGraphs, c.AvgNodes, c.NodeSpread = 10, 24, 4
		c.Density = 3.0 / 24
		w.Synth = &c
	}
	if w.Spare > 0 {
		w.Spare = 6
	}
	w.Sizes = []int{3, 5}
	w.Pool = 12
	w.SetupReps = 1
	w.TraceStride = 2
	if w.MutateEvery > 0 {
		w.MutateEvery = time.Millisecond
		w.ZipfDraws = 256
	}
	return w
}

func findWorkloads(list string) ([]workloadSpec, error) {
	all := workloads()
	if list == "" {
		return all, nil
	}
	var out []workloadSpec
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range all {
			if w.Name == strings.TrimSpace(name) {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// runSeconds is the measured window the driver asks for (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 15

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}
