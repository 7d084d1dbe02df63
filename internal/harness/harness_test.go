package harness

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/metrics"
)

// testConfig is a heavily trimmed configuration so the full experiment
// suite runs in test time.
func testConfig() Config {
	return Config{
		Scale: gen.Tiny, Cap: 50 * time.Millisecond, Seed: 1,
		QueriesPerSize: 3, FTVSizes: []int{4, 6}, NFVSizes: []int{3, 6},
		IsoInstances: 3, EmbedLimit: 100,
	}
}

func TestDefaultConfigs(t *testing.T) {
	for _, s := range []gen.Scale{gen.Tiny, gen.Small, gen.Medium, gen.Paper} {
		cfg := DefaultConfig(s)
		if cfg.Cap <= 0 || cfg.QueriesPerSize <= 0 || len(cfg.FTVSizes) == 0 || len(cfg.NFVSizes) == 0 {
			t.Errorf("scale %v: bad config %+v", s, cfg)
		}
		if cfg.IsoInstances != 6 || cfg.EmbedLimit != 1000 {
			t.Errorf("scale %v: paper constants wrong: %+v", s, cfg)
		}
	}
	if DefaultConfig(gen.Paper).Cap != 600*time.Second {
		t.Error("paper scale must use the 10-minute cap")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table10",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation1",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestRegistryOrdering(t *testing.T) {
	all := All()
	if all[0].ID != "ablation1" {
		t.Errorf("first experiment = %s, want ablation1", all[0].ID)
	}
	// fig2 must come before fig10 (numeric, not lexicographic)
	pos := map[string]int{}
	for i, exp := range all {
		pos[exp.ID] = i
	}
	if pos["fig2"] > pos["fig10"] {
		t.Error("numeric ordering violated: fig2 after fig10")
	}
	if pos["table2"] > pos["table10"] {
		t.Error("numeric ordering violated: table2 after table10")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Error("fig99 should not exist")
	}
	var buf bytes.Buffer
	if err := Run(testConfig(), &buf, "fig99"); err == nil {
		t.Error("Run with unknown ID should fail")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Note:   "a note",
	}
	tbl.AddRow("x", "y")
	tbl.AddRow("wide-cell", "z")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	got := []string{fmtDur(0), fmtDur(500 * time.Microsecond), fmtDur(25 * time.Millisecond), fmtDur(3 * time.Second),
		fmtF(0), fmtF(5000), fmtF(42.13), fmtF(3.14159), fmtPct(12.34)}
	if want := []string{"-", "500.0µs", "25.00ms", "3.00s", "0", "5000", "42.1", "3.14", "12.3%"}; !slices.Equal(got, want) {
		t.Errorf("formatted %q, want %q", got, want)
	}
}

func TestEnvCaching(t *testing.T) {
	e := NewEnv(testConfig())
	if e.Synthetic()[0] != e.Synthetic()[0] {
		t.Error("dataset not cached")
	}
	if e.ftvIndex("ppi") != e.ftvIndex("ppi") {
		t.Error("index not cached")
	}
	e.TimeFTVVerify(Grapes(1), "ppi", e.PPI()[0], 0)
	e.TimeFTVVerify(Grapes(4), "ppi", e.PPI()[0], 0)
	if g1, g4 := Grapes(1), Grapes(4); g1 == g4 || g1.Name() == g4.Name() || len(e.indexes) != 1 {
		t.Error("different worker counts must be distinct verifiers over one table")
	}
	if e.NFVMatcher("yeast", "GQL") != e.NFVMatcher("yeast", "GQL") {
		t.Error("matcher not cached")
	}
	calls := 0
	f := func() metrics.Timing { calls++; return metrics.Timing{} }
	e.cachedTiming("k", f)
	e.cachedTiming("k", f)
	if calls != 1 {
		t.Errorf("cachedTiming ran %d times, want 1", calls)
	}
}

// TestReplayNamesWhatItReproduces: the FTV experiments print a row for every
// configuration the paper evaluates — Grapes/1 and Grapes/4 on both datasets,
// GGSX on PPI only — and name the baseline and the Ψ version they compare,
// while the replay builds one table per FTV dataset: every configuration is
// a verifier timed over its dataset's one build.
func TestReplayNamesWhatItReproduces(t *testing.T) {
	e := NewEnv(testConfig())
	run := func(id string) string {
		t.Helper()
		exp, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		var buf bytes.Buffer
		if err := exp.Run(e, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return buf.String()
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(run("fig1"), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && (f[0] == "synthetic" || f[0] == "ppi") {
			rows[f[0]+" "+f[1]] = true
		}
	}
	want := map[string]bool{"synthetic Grapes/1": true, "synthetic Grapes/4": true, "ppi Grapes/1": true, "ppi Grapes/4": true, "ppi GGSX": true}
	if !maps.Equal(rows, want) {
		t.Errorf("fig1 prints rows %v, want %v", rows, want)
	}
	header := ""
	for _, line := range strings.Split(run("fig12"), "\n") {
		if strings.HasPrefix(line, "query size") {
			header = line
		}
	}
	if !strings.Contains(header, "Grapes/4") {
		t.Errorf("fig12's header %q does not name Grapes/4", header)
	}
	if out := run("table10"); !strings.Contains(out, "Ψ(Grapes/4: Or/all)") {
		t.Errorf("table10 does not name Ψ(Grapes/4: Or/all):\n%s", out)
	}
	if len(e.indexes) != 2 {
		t.Errorf("the replay built %d tables, want one per FTV dataset", len(e.indexes))
	}
}

func TestEnvPanicsOnUnknownNames(t *testing.T) {
	e := NewEnv(testConfig())
	assertPanics(t, func() { e.FTVDataset("nope") })
	assertPanics(t, func() { e.NFVGraph("nope") })
	assertPanics(t, func() { e.NFVMatcher("yeast", "NOPE") })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestAllExperimentsRun executes every registered experiment end to end at
// the trimmed test scale and checks each produces table output; then again
// under a cap that kills every timed run, as long runs are at the paper's.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; run without -short")
	}
	killing := testConfig()
	killing.Cap = time.Nanosecond
	for _, run := range []struct {
		prefix string
		cfg    Config
	}{{"", testConfig()}, {"killed at the cap/", killing}} {
		env := NewEnv(run.cfg)
		for _, exp := range All() {
			t.Run(run.prefix+exp.ID, func(t *testing.T) {
				var buf bytes.Buffer
				if err := exp.Run(env, &buf); err != nil {
					t.Fatalf("%s: %v", exp.ID, err)
				}
				if !strings.Contains(buf.String(), "---") {
					t.Errorf("%s produced no table output:\n%s", exp.ID, buf.String())
				}
			})
		}
	}
}

func TestRunSelected(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := Run(testConfig(), &buf, "table1", "fig5"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== table1") || !strings.Contains(out, "=== fig5") {
		t.Errorf("missing experiment banners:\n%s", out)
	}
}
