package main

// Coldstart mode: benchmarks the persistent-snapshot path end to end and
// measures what loading a saved snapshot buys over the alternative — running
// every index build again from the raw dataset at process start.
//
// The run builds a dataset engine from scratch (timed: that is the cost a
// snapshot avoids), answers a query set, saves a snapshot, then cold-starts
// a second engine from the file alone and re-answers the same queries.
// The non-negotiable invariant is byte-identical answers; the performance
// claim is that the load beats the rebuild by at least coldstartMinSpeedup.
// The -json output is the committed BENCH_snapshot.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	psi "github.com/psi-graph/psi"
)

// The two floors a coldstart run must clear, or it exits non-zero (check.sh's
// snapshot smoke runs it).
//
// coldstartMinSpeedup bounds build_ns / load_ns from below: deserializing the
// prebuilt arrays must beat re-running feature extraction, or the snapshot
// machinery is not paying for itself. At tiny scale the race portfolio's
// build (one shared extraction, three folds) takes 170-310 ms and the load
// 17-24 ms, 7.7-15x across runs on a 2-vCPU box; the floor sits under that
// range by the box's ±20% timing noise.
//
// That ratio moves with the build as much as with the load, so the load has a
// floor of its own: coldstartMinLoadMBps bounds snapshot bytes per second of
// load. The same portfolio's 11.4 MB file loads at 350-660 MB/s, so a load
// that got 3x slower fails here whatever the build did.
const (
	coldstartMinSpeedup  = 5
	coldstartMinLoadMBps = 150
)

// coldstartReport is the full -coldstart output document.
type coldstartReport struct {
	Bench         string        `json:"bench"`
	Scale         string        `json:"scale"`
	Seed          int64         `json:"seed"`
	Index         string        `json:"index_spec"`
	Shards        int           `json:"shards"`
	CPUs          int           `json:"cpus"`
	Graphs        int           `json:"graphs"`
	SnapshotBytes int64         `json:"snapshot_bytes"`
	BuildNS       time.Duration `json:"build_ns"`
	SaveNS        time.Duration `json:"save_ns"`
	LoadNS        time.Duration `json:"load_ns"`
	SpeedupX      float64       `json:"speedup_x"`
	QueriesRun    int           `json:"queries_run"`
	Answers       int           `json:"answers"`
	Parity        bool          `json:"parity_with_build"`
}

// runColdstartBench drives the build → save → load → parity cycle and
// prints text or JSON.
func runColdstartBench(scale psi.Scale, scaleName, indexSpec string, seed int64, queries, shards int, cap time.Duration, snapPath string, asJSON bool) error {
	if seed == 0 {
		seed = 1
	}
	if queries <= 0 {
		queries = 12
	}
	kinds, err := psi.ParseIndexSpec(indexSpec)
	if err != nil {
		return err
	}
	info := os.Stdout
	if asJSON {
		info = os.Stderr
	}
	if snapPath == "" {
		dir, err := os.MkdirTemp("", "psibench-coldstart")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		snapPath = filepath.Join(dir, "coldstart.psisnap")
	}

	// Concatenating generator runs at distinct seeds grows the dataset so
	// the index build visibly dwarfs a deserialization pass.
	const genRuns = 6
	var ds []*psi.Graph
	for i := int64(0); i < genRuns; i++ {
		ds = append(ds, psi.GeneratePPI(scale, seed+i)...)
	}

	// The build every later boot would repeat without a snapshot.
	buildStart := time.Now()
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: kinds,
		Shards:  shards,
		Timeout: cap,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	report := coldstartReport{
		Bench: "snapshot", Scale: scaleName, Seed: seed, Index: indexSpec,
		Shards: eng.Shards(), CPUs: runtime.NumCPU(),
		Graphs: len(ds), BuildNS: time.Since(buildStart),
		Parity: true,
	}
	fmt.Fprintf(info, "coldstart: %d graphs, K=%d, indexes built in %v\n",
		len(ds), eng.Shards(), report.BuildNS.Round(time.Millisecond))

	ctx := context.Background()
	queryGraphs := make([]*psi.Graph, queries)
	baseline := make([][]int, queries)
	for i := range queryGraphs {
		queryGraphs[i] = psi.ExtractQuery(ds[i%len(ds)], 4+(i%2)*4, seed+int64(i))
		res, err := eng.Query(ctx, queryGraphs[i], 0)
		if err != nil {
			return fmt.Errorf("baseline q%d: %w", i, err)
		}
		baseline[i] = res.GraphIDs
		report.Answers += len(res.GraphIDs)
	}
	report.QueriesRun = queries

	saveStart := time.Now()
	if err := eng.SaveSnapshot(snapPath); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	report.SaveNS = time.Since(saveStart)
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	report.SnapshotBytes = fi.Size()
	fmt.Fprintf(info, "coldstart: snapshot saved in %v (%d bytes)\n",
		report.SaveNS.Round(time.Millisecond), report.SnapshotBytes)

	// The cold start a snapshot buys: no dataset, no feature extraction —
	// the file alone reconstructs the engine.
	loadStart := time.Now()
	cold, err := psi.NewDatasetEngine(nil, psi.EngineOptions{
		Snapshot: snapPath,
		Timeout:  cap,
	})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	defer cold.Close()
	report.LoadNS = time.Since(loadStart)

	for i, q := range queryGraphs {
		res, err := cold.Query(ctx, q, 0)
		if err != nil {
			return fmt.Errorf("parity q%d (cold): %w", i, err)
		}
		if !slices.Equal(res.GraphIDs, baseline[i]) {
			report.Parity = false
			return fmt.Errorf("parity q%d: cold engine answered %v, fresh build %v", i, res.GraphIDs, baseline[i])
		}
	}
	report.SpeedupX = float64(report.BuildNS) / float64(report.LoadNS)
	fmt.Fprintf(info, "coldstart: loaded in %v — %.1fx faster than the build (parity holds over %d queries)\n",
		report.LoadNS.Round(time.Millisecond), report.SpeedupX, queries)
	if report.SpeedupX < coldstartMinSpeedup {
		return fmt.Errorf("cold-start speedup %.1fx under the %dx floor — the snapshot load is not beating a rebuild", report.SpeedupX, coldstartMinSpeedup)
	}
	if rate := float64(report.SnapshotBytes) / 1e6 / report.LoadNS.Seconds(); rate < coldstartMinLoadMBps {
		return fmt.Errorf("cold start read the snapshot at %.0f MB/s, under the %d MB/s floor — the load itself got slower", rate, coldstartMinLoadMBps)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}
