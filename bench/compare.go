package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compared are the metrics with a bound: the gated end-to-end metrics and
// the demoted window metrics with their advisory bound.
func compared() []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		if d.Bound > 0 {
			out = append(out, d)
		}
	}
	return out
}

// loadRuns reads one results file, or every *.json results file in a
// directory, and groups the compared metrics' values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	out := map[string]map[string][]float64{}
	defs := compared()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil || len(rec.Workloads) == 0 {
			continue // a span file or some other JSON: not a results file
		}
		for _, w := range rec.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for _, d := range defs {
				v, ok := w.EndToEnd[d.Name]
				if !ok {
					v, ok = w.PerLayer[d.Name]
				}
				if ok && v.Samples > 0 {
					out[w.Name][d.Name] = append(out[w.Name][d.Name], v.Value)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results with compared metrics", path)
	}
	return out, nil
}

// verdict judges one metric on one workload by the benchmark's own rule: a
// side whose run-to-run spread exceeds the bound cannot resolve a change of
// that size; otherwise the medians decide, in the metric's direction.
func verdict(d metricDef, oldV, newV []float64) string {
	if spread(oldV) > d.Bound || spread(newV) > d.Bound {
		return "unresolved"
	}
	o, n := median(oldV), median(newV)
	if o == 0 {
		return "unresolved"
	}
	change := (n - o) / o
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

// compareRuns prints one row per workload × compared metric and returns 1
// when any row is worse.
func compareRuns(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldR, err := loadRuns(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	newR, err := loadRuns(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-22s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, w := range workloads() {
		for _, d := range compared() {
			o, n := oldR[w.Name][d.Name], newR[w.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(d, o, n)
			if v == "worse" {
				code = 1
			}
			mo, mn := median(o), median(n)
			fmt.Fprintf(stdout, "%-16s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, mo, mn, 100*(mn-mo)/mo, 100*max(spread(o), spread(n)), 100*d.Bound, v)
		}
	}
	return code
}

// summarizeRuns prints, per workload × compared metric, the median, the
// quartiles and the spread (IQR / median) over a directory of runs: the
// tool the bounds in spec.go were set with.
func summarizeRuns(dir string, stdout, stderr io.Writer) int {
	runs, err := loadRuns(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-22s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads() {
		for _, d := range compared() {
			v := runs[w.Name][d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(stdout, "%-16s %-22s %4d %12.4f %12.4f %12.4f %7.1f%% %6.0f%%\n", w.Name, d.Name, len(v), q1, q2, q3, 100*spread(v), 100*d.Bound)
		}
	}
	return 0
}
