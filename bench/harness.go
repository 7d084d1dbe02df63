package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is what the command line fixes for every workload of a run.
type config struct {
	seed    int64
	seconds float64
	window  bool // run the untraced measured window (end-to-end metrics)
	traced  bool // run the traced pass and the layer probes (per-layer metrics)
	smoke   bool
	fault   bool   // test hook: corrupt one answer so the parity gate must trip
	outDir  string // trace files and temporary snapshots
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one workload's record in the results file.
type workloadResult struct {
	Name      string                 `json:"name"`
	Parity    bool                   `json:"parity"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Counts    map[string]int         `json:"request_counts"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
}

// run is one workload execution in progress.
type run struct {
	spec workloadSpec
	cfg  config
	in   *inputs
	rec  *recorder // nil while tracing is off
	res  *workloadResult
	mu   sync.Mutex // guards res.Parity and res.Problems: clients report mismatches concurrently
}

func newRun(spec workloadSpec, cfg config) *run {
	return &run{
		spec: spec,
		cfg:  cfg,
		in:   makeInputs(spec, cfg.seed),
		res: &workloadResult{
			Name:     spec.Name,
			Parity:   true,
			Counts:   map[string]int{},
			EndToEnd: map[string]metricValue{},
			PerLayer: map[string]metricValue{},
		},
	}
}

// mismatch records a wrong answer: the run reports parity false and the
// command exits non-zero.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Parity = false
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

var (
	e2eUnits   = unitsOf(endToEnd)
	layerUnits = unitsOf(perLayer)
)

func unitsOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// put stores a metric under its table; an unknown name is a bug in the
// benchmark, not in the program under test.
func (r *run) put(name string, v float64, samples int) {
	if unit, ok := e2eUnits[name]; ok {
		r.res.EndToEnd[name] = metricValue{v, unit, samples}
		return
	}
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	r.res.PerLayer[name] = metricValue{v, unit, samples}
}

// putMedian stores the median of v, or nothing when v is empty.
func (r *run) putMedian(name string, v []float64) {
	if len(v) > 0 {
		r.put(name, median(v), len(v))
	}
}

// sample is one request as the client saw it.
type sample struct {
	first  time.Duration // request sent to first result
	total  time.Duration // request sent to last byte / last embedding
	ok     bool
	cached bool // answered from the server's result cache
	busy   bool // a mutation was in flight when it started or ended
}

// window is one closed-loop measurement: wall and CPU time, allocation and
// every request's timings.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	samples []sample
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// heapInUseMB is the live heap after a collection.
func heapInUseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// measure replays order for the given number of passes over clients
// closed-loop clients: client c sends order[c], order[c+clients], ... and
// each sends its next request only when the previous one completed.
func measure(clients, passes int, order []int, do func(client, idx int) sample) window {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	alloc0, cpu0, start := totalAlloc(), cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for k := c; k < len(order); k += clients {
					per[c] = append(per[c], do(c, order[k]))
				}
			}
		}()
	}
	wg.Wait()
	w := window{wall: time.Since(start), cpu: cpuTime() - cpu0, alloc: totalAlloc() - alloc0}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// passesFor sizes the measured window in whole passes, so every pool query
// weighs the same in every run: as many passes as fit the asked seconds,
// judged by how long the warm-up pass took, and at least one.
func (r *run) passesFor(warm time.Duration) int {
	if r.cfg.smoke || warm <= 0 {
		return 1
	}
	n := int(r.cfg.seconds/warm.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// reportWindow turns a window into the window metrics. In a run with both
// passes the traced one reports only its failures and CPU share, so it
// cannot overwrite what the untraced window measured.
func (r *run) reportWindow(w window, traced bool) {
	var lat, first []float64
	for _, s := range w.samples {
		if s.ok {
			lat = append(lat, ms(s.total))
			first = append(first, ms(s.first))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(first)
	done := len(lat)
	r.res.Attempted += len(w.samples)
	r.res.Failed += len(w.samples) - done
	key := "window_queries"
	if traced {
		key = "traced_queries"
	}
	r.res.Counts[key] = len(w.samples)
	r.put("fail_ratio", float64(len(w.samples)-done)/float64(max(len(w.samples), 1)), len(w.samples))
	if done == 0 {
		return
	}
	r.put("exec.cpu_per_wall", w.cpu.Seconds()/w.wall.Seconds(), done)
	if traced && r.cfg.window {
		return
	}
	tail := supportedTail(done, r.spec.TailPct)
	r.res.Counts["tail_percentile_x10"] = int(tail * 10)
	r.put("query_p50_ms", percentile(lat, 50), done)
	r.put("query_tail_ms", percentile(lat, tail), done)
	r.put("first_result_p50_ms", percentile(first, 50), done)
	r.put("first_result_tail_ms", percentile(first, tail), done)
	r.put("throughput_qps", float64(done)/w.wall.Seconds(), done)
	r.put("cpu_ms_per_query", ms(w.cpu)/float64(done), done)
	r.put("alloc_kb_per_query", float64(w.alloc)/1024/float64(done), done)
}

// timeSetups runs build SetupReps times (once in a traced-only run, which
// does not report set-up), keeps the last product and reports the median
// build time and the heap the survivor holds.
func timeSetups[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	var (
		keep  T
		times []float64
	)
	reps := r.spec.SetupReps
	if !r.cfg.window {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(keep)
		}
		start := time.Now()
		t, err := build()
		if err != nil {
			return keep, err
		}
		times = append(times, time.Since(start).Seconds())
		keep = t
	}
	r.put("setup_s", median(times), len(times))
	r.put("heap_after_setup_mb", heapInUseMB(), 1)
	return keep, nil
}

// finish fills the metrics a workload does not exercise with 0 and checks
// that nothing the contract asks for is missing.
func (r *run) finish() error {
	if r.cfg.traced {
		for _, d := range perLayer {
			if _, ok := r.res.PerLayer[d.Name]; !ok {
				r.put(d.Name, 0, 0)
			}
		}
	}
	if r.cfg.window {
		for _, d := range endToEnd {
			if _, ok := r.res.EndToEnd[d.Name]; !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.spec.Name, d.Name)
			}
		}
	}
	return nil
}
