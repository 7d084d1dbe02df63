package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type contract struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs the command in smoke mode and decodes its last line.
func smokeRun(t *testing.T, args ...string) (int, contract, string) {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"-smoke", "-out", dir}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var c contract
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, c, dir
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

// Every workload's whole code path, both passes, in smoke shapes.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	code, _, dir := smokeRun(t)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	b, err := os.ReadFile(filepath.Join(dir, "latest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != 4 || rec.NumCPU == 0 || rec.GOMAXPROCS == 0 || rec.GoVersion == "" {
		t.Fatalf("results file lacks workloads or environment: %+v", rec)
	}
	for _, w := range rec.Workloads {
		if !w.Parity || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: parity=%v attempted=%d failed=%d %v", w.Name, w.Parity, w.Attempted, w.Failed, w.Problems)
		}
		for _, n := range names(endToEnd) {
			if v, ok := w.EndToEnd[n]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, n, v.Value)
			}
		}
		for _, n := range names(perLayer) {
			if _, ok := w.PerLayer[n]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, n)
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
		if w.Name == onMixed && (w.Counts["mutations"] == 0 || w.PerLayer["mutation_p50_ms"].Value <= 0) {
			t.Errorf("%s: the writer never ran: %v", w.Name, w.Counts)
		}
	}
}

// -trace 0 prints exactly the end-to-end metrics, -trace 1 exactly the
// per-layer ones: the driver's contract.
func TestContractLinePerTraceMode(t *testing.T) {
	for mode, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		code, c, _ := smokeRun(t, "-workload", onSelective, "-trace", mode)
		if code != 0 || !c.Correct || c.Attempted < 1 || c.Failed != 0 {
			t.Fatalf("-trace %s: code %d, %+v", mode, code, c)
		}
		if len(c.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", mode, len(c.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := c.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("-trace %s: metric %s missing or unit %q != %q", mode, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

// A deliberately wrong answer must trip the gate in every workload and in
// both passes.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range workloads() {
		for _, mode := range []string{"0", "1"} {
			code, c, _ := smokeRun(t, "-workload", w.Name, "-trace", mode, "-fault")
			if code == 0 || c.Correct {
				t.Errorf("%s -trace %s: wrong answer went unnoticed (code %d, correct %v)", w.Name, mode, code, c.Correct)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from spec.go; the committed file must be that
// output, and it must stay inside the driver's limits.
func TestManifest(t *testing.T) {
	got := manifest()
	if len(got) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(got))
	}
	if committed, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Error(err)
	} else if !bytes.Equal(committed, got) {
		t.Error("BENCHMARK.json is stale: regenerate with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(ws), len(endToEnd), len(perLayer))
	}
	for _, w := range ws {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
		if d.Moves == "" {
			t.Errorf("%s: says nothing about what it should move", d.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	up := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{d, steady, []float64{104, 105, 103, 104, 106}, "same"},
		{d, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{d, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{up, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{up, steady, []float64{120, 121, 119, 120, 122}, "better"},
		{d, steady, []float64{90, 150, 100, 170, 120}, "unresolved"}, // spread beyond the bound
		{d, []float64{100}, []float64{120}, "worse"},                 // single runs: medians only
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}

// -compare exits non-zero exactly when a metric got worse.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rec := record{Workloads: []*workloadResult{{Name: onNFV, PerLayer: map[string]metricValue{"query_p50_ms": {Value: p50, Unit: "ms", Samples: 1}}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, worse := write("a.json", 4.0), write("b.json", 4.1), write("c.json", 6.0)
	var out bytes.Buffer
	if code := realMain([]string{"-compare", base, same}, &out, &out); code != 0 {
		t.Errorf("same: exit %d\n%s", code, out.String())
	}
	if code := realMain([]string{"-compare", base, worse}, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("worse: exit %d\n%s", code, out.String())
	}
}
