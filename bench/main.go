// Command bench is the repo's benchmark: four workloads against the public
// surface of psi.Engine and internal/server, every answer checked, every
// metric printed by name with its unit. See README.md.
//
//	bash bench/run.sh -workload ftv_selective -seed 3          # from the repo root
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is the results file: one run of one or more workloads.
type record struct {
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GitRev     string            `json:"git_rev"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      string            `json:"trace"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workloads  []*workloadResult `json:"workloads"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workloads to run, comma-separated (default: all four)")
		seed      = fs.Int64("seed", 1, "draws the query pool, its order and the mutation stream")
		seconds   = fs.Float64("seconds", runSeconds, "length of the measured window")
		trace     = fs.String("trace", "both", "0: measured window only (end-to-end metrics); 1: traced pass and layer probes only (per-layer metrics); both")
		procs     = fs.Int("procs", 0, "GOMAXPROCS (default: min(nproc, 4))")
		outDir    = fs.String("out", "bench/out", "directory for span files, temporary snapshots and the default results file")
		jsonPath  = fs.String("json", "", "results file (default: <out>/latest.json)")
		smoke     = fs.Bool("smoke", false, "tiny shapes, one pass: exercises every code path in seconds")
		fault     = fs.Bool("fault", false, "test hook: corrupt one answer per workload; the run must exit non-zero")
		compare   = fs.Bool("compare", false, "compare two results files or directories: -compare old new")
		summarize = fs.String("summarize", "", "print median, quartiles and spread per metric over the results files in this directory")
		printSpec = fs.Bool("manifest", false, "print BENCHMARK.json as generated from spec.go")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		stdout.Write(manifest())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two results files or directories: old new")
			return 2
		}
		return compareRuns(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *summarize != "":
		return summarizeRuns(*summarize, stdout, stderr)
	}
	specs, err := findWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, fault: *fault, outDir: *outDir}
	switch *trace {
	case "0":
		cfg.window = true
	case "1":
		cfg.traced = true
	case "both":
		cfg.window, cfg.traced = true, true
	default:
		fmt.Fprintf(stderr, "bench: -trace %q (want 0, 1 or both)\n", *trace)
		return 2
	}
	if *procs <= 0 {
		*procs = min(runtime.NumCPU(), 4)
	}
	runtime.GOMAXPROCS(*procs)
	if *jsonPath == "" {
		*jsonPath = filepath.Join(cfg.outDir, "latest.json")
	}
	rec := record{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: *procs, GoVersion: runtime.Version(), GitRev: gitRev(),
		Seed: *seed, Seconds: *seconds, Trace: *trace, Smoke: *smoke,
	}
	fmt.Fprintf(stdout, "# num_cpu=%d gomaxprocs=%d %s rev=%s seed=%d seconds=%g trace=%s\n",
		rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.GitRev, rec.Seed, rec.Seconds, rec.Trace)

	code := 0
	var last *workloadResult
	for _, spec := range specs {
		if *smoke {
			spec = spec.smoke()
		}
		start := time.Now()
		res, err := runWorkload(spec, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", spec.Name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, res)
		printResult(stdout, res, time.Since(start))
		if !res.Parity {
			for _, p := range res.Problems {
				fmt.Fprintf(stderr, "bench: %s: WRONG ANSWER: %s\n", spec.Name, p)
			}
			code = 1
		}
		last = res
	}
	if err := writeJSON(*jsonPath, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	stdout.Write(contractLine(last, cfg))
	return code
}

// runWorkload executes one workload and writes its span file.
func runWorkload(spec workloadSpec, cfg config) (*workloadResult, error) {
	r := newRun(spec, cfg)
	var err error
	switch {
	case spec.Single != nil:
		err = runNFV(r)
	case spec.Mutable:
		err = runMixed(r)
	default:
		err = runFTV(r)
	}
	if err != nil {
		return nil, err
	}
	if err := r.rec.write(filepath.Join(cfg.outDir, "trace-"+spec.Name+".json")); err != nil {
		return nil, err
	}
	return r.res, r.finish()
}

// printResult prints every metric by name with its unit and, for a layer
// metric, the end-to-end metric and workload it is expected to move.
func printResult(w io.Writer, res *workloadResult, took time.Duration) {
	fmt.Fprintf(w, "\n== %s  parity=%v attempted=%d failed=%d (%.1fs)\n", res.Name, res.Parity, res.Attempted, res.Failed, took.Seconds())
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %s=%d", k, res.Counts[k])
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %14.4f %-6s n=%-6d bound %.0f%%\n", d.Name, v.Value, v.Unit, v.Samples, d.Bound*100)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok && v.Samples > 0 {
			fmt.Fprintf(w, "%-36s %14.4f %-6s n=%-6d -> %s\n", d.Name, v.Value, v.Unit, v.Samples, d.Moves)
		}
	}
}

// contractLine is the driver's result line: the end-to-end metrics after a
// measured window, the per-layer metrics after a traced pass (both tables
// when the run did both).
func contractLine(res *workloadResult, cfg config) []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if cfg.window {
		for k, v := range res.EndToEnd {
			metrics[k] = mv{v.Value, v.Unit}
		}
	}
	if cfg.traced {
		for k, v := range res.PerLayer {
			metrics[k] = mv{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Parity, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // NaN or Inf: a metric was computed from nothing
	}
	return append(b, '\n')
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitRev names the measured commit; the driver's checkout is not a git
// repository, so "unknown" is a normal answer.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
