package psi_test

// Error-path coverage for ParseIndexSpec and Engine option validation: bad
// kinds, empty portfolios and duplicate index specs must fail fast — before
// any dataset extraction is paid for — with messages naming the offender.

import (
	"slices"
	"strings"
	"testing"

	psi "github.com/psi-graph/psi"
)

func TestParseIndexSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    []string
		wantErr string // substring of the expected error; empty means success
	}{
		{spec: "", want: nil},
		{spec: "race", want: []string{"ftv", "ggsx", "grapes"}},
		{spec: "grapes", want: []string{"grapes"}},
		{spec: " grapes , ggsx ", want: []string{"grapes", "ggsx"}},
		{spec: ",,", wantErr: "empty index spec"},
		{spec: "   ,", wantErr: "empty index spec"},
		{spec: "grapes,grapes", wantErr: "duplicate index kind"},
		{spec: "ftv,ggsx,ftv", wantErr: "duplicate index kind"},
		{spec: "btree", wantErr: "unknown index kind"},
		{spec: "grapes,btree", wantErr: `unknown index kind "btree"`},
	}
	for _, c := range cases {
		got, err := psi.ParseIndexSpec(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseIndexSpec(%q) err = %v, want substring %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseIndexSpec(%q) failed: %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseIndexSpec(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseIndexSpec(%q) = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

// TestParseAlgorithmsAndRewritings covers the flag parsers psiquery and
// psiserve share: comma-separated names, whitespace tolerated, the paper's
// "Or" shorthand for Orig, and an error naming any unknown or empty element.
func TestParseAlgorithmsAndRewritings(t *testing.T) {
	algoCases := []struct {
		in      string
		want    []psi.Algorithm
		wantErr string
	}{
		{in: "GQL,SPA", want: []psi.Algorithm{psi.GraphQL, psi.SPath}},
		{in: " VF2 , QSI ", want: []psi.Algorithm{psi.VF2, psi.QuickSI}},
		{in: "GQL,TurboISO", wantErr: `unknown algorithm "TurboISO"`},
		{in: "GQL,,SPA", wantErr: `unknown algorithm ""`},
		{in: "", wantErr: "unknown algorithm"},
	}
	for _, c := range algoCases {
		got, err := psi.ParseAlgorithms(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseAlgorithms(%q) err = %v, want substring %q", c.in, err, c.wantErr)
			}
		} else if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseAlgorithms(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	rewritingCases := []struct {
		in      string
		want    []psi.Rewriting
		wantErr string
	}{
		{in: "Orig,DND", want: []psi.Rewriting{psi.Orig, psi.DND}},
		{in: " ILF , ILF+IND ", want: []psi.Rewriting{psi.ILF, psi.ILFIND}},
		{in: "Or,IND", want: []psi.Rewriting{psi.Orig, psi.IND}},
		{in: "Orig,Shuffle", wantErr: `unknown rewriting "Shuffle"`},
		{in: "Orig,,DND", wantErr: `unknown rewriting ""`},
		{in: "", wantErr: "unknown rewriting"},
	}
	for _, c := range rewritingCases {
		got, err := psi.ParseRewritings(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseRewritings(%q) err = %v, want substring %q", c.in, err, c.wantErr)
			}
		} else if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseRewritings(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestNewEngineRejectsUnknownAlgorithm(t *testing.T) {
	g := psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})
	_, err := psi.NewEngine(g, psi.EngineOptions{
		Algorithms: []psi.Algorithm{psi.GraphQL, "NOPE"},
	})
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("unknown algorithm error = %v, want it to name the offender", err)
	}
}

func TestNewDatasetEngineRejectsDuplicateIndexes(t *testing.T) {
	ds := []*psi.Graph{psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})}
	_, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv", "ftv"},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate index kind") {
		t.Errorf("duplicate portfolio error = %v, want duplicate-kind rejection", err)
	}
}

func TestNewDatasetEngineRejectsBadKindInPortfolio(t *testing.T) {
	ds := []*psi.Graph{psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})}
	_, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"grapes", "btree"},
	})
	if err == nil || !strings.Contains(err.Error(), "btree") {
		t.Errorf("bad portfolio kind error = %v, want it to name the offender", err)
	}
}

func TestNewDatasetEngineRejectsBadPolicyBeforeBuilding(t *testing.T) {
	ds := []*psi.Graph{psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})}
	_, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes:     []string{"ftv", "grapes"},
		IndexPolicy: "roundrobin",
	})
	if err == nil || !strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("bad policy error = %v, want it to name the offender", err)
	}
}

// TestAnswerStreamReportsKill pins the no-silent-truncation contract: the
// result-less AnswerStream wrapper must surface a budget kill as ErrKilled,
// never as a nil error over a truncated ID stream.
func TestAnswerStreamReportsKill(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv"},
		Timeout: 1, // 1ns: every query is born past its deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := psi.ExtractQuery(ds[0], 4, 7)
	err = eng.AnswerStream(t.Context(), q, func(int) bool { return true })
	if err != psi.ErrKilled {
		t.Errorf("AnswerStream under an expired budget returned %v, want ErrKilled", err)
	}
	res, err := eng.AnswerStreamResult(t.Context(), q, func(int) bool { return true })
	if err != nil || !res.Killed {
		t.Errorf("AnswerStreamResult = (%+v, %v), want a killed result", res, err)
	}
}

func TestExecuteRejectsForeignPlan(t *testing.T) {
	g := psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})
	a, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	q := psi.MustNewGraph("q", []psi.Label{0}, nil)
	p, err := a.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(t.Context(), p, 1); err == nil {
		t.Error("Execute must reject a plan from a different engine")
	}
	if _, err := a.Execute(t.Context(), nil, 1); err == nil {
		t.Error("Execute must reject a nil plan")
	}
}
