package psi_test

// Error-path coverage for ParseIndexSpec and Engine option validation: bad
// kinds, empty portfolios and duplicate index specs must fail fast — before
// any dataset extraction is paid for — with messages naming the offender.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/difftest"
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
		checkParse(t, "ParseIndexSpec", c.spec, got, c.want, err, c.wantErr)
	}
}

// checkParse fails the test unless a parser's result is want, or, when
// wantErr is set, its error contains wantErr.
func checkParse[T comparable](t *testing.T, parser, in string, got, want []T, err error, wantErr string) {
	t.Helper()
	if wantErr != "" {
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s(%q) err = %v, want substring %q", parser, in, err, wantErr)
		}
	} else if err != nil || !slices.Equal(got, want) {
		t.Errorf("%s(%q) = %v, %v; want %v", parser, in, got, err, want)
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
		checkParse(t, "ParseAlgorithms", c.in, got, c.want, err, c.wantErr)
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
		checkParse(t, "ParseRewritings", c.in, got, c.want, err, c.wantErr)
	}
}

// oneEdge is a one-graph dataset for the option checks, which fail before
// anything is built over it.
var oneEdge = []*psi.Graph{psi.MustNewGraph("g", []psi.Label{0, 1}, [][2]int{{0, 1}})}

// rejects fails the test unless build(opts) errs with an error containing
// want; an engine it builds anyway is closed.
func rejects(t *testing.T, what string, build func(psi.EngineOptions) (*psi.Engine, error), opts psi.EngineOptions, want string) {
	t.Helper()
	eng, err := build(opts)
	if err == nil {
		eng.Close()
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s engine with %+v: err = %v, want one containing %q", what, opts, err, want)
	}
}

func buildStored(o psi.EngineOptions) (*psi.Engine, error)  { return psi.NewEngine(oneEdge[0], o) }
func buildDataset(o psi.EngineOptions) (*psi.Engine, error) { return psi.NewDatasetEngine(oneEdge, o) }

func TestNewEngineRejectsUnknownAlgorithm(t *testing.T) {
	rejects(t, "stored graph", buildStored, psi.EngineOptions{Algorithms: []psi.Algorithm{psi.GraphQL, "NOPE"}}, "NOPE")
}

func TestNewDatasetEngineRejectsDuplicateIndexes(t *testing.T) {
	rejects(t, "dataset", buildDataset, psi.EngineOptions{Indexes: []string{"ftv", "ftv"}}, "duplicate index kind")
}

func TestNewDatasetEngineRejectsBadKindInPortfolio(t *testing.T) {
	rejects(t, "dataset", buildDataset, psi.EngineOptions{Indexes: []string{"grapes", "btree"}}, "btree")
}

func TestNewDatasetEngineRejectsBadPolicyBeforeBuilding(t *testing.T) {
	rejects(t, "dataset", buildDataset, psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, IndexPolicy: "roundrobin"}, "roundrobin")
}

// TestCrossKindPolicyFieldIsRejected: each engine kind reads one launch-policy
// field, Mode on a stored graph and IndexPolicy on a dataset, and rejects the
// other's, any value of it, with an error naming the field to set — on the
// snapshot path as well as on a build.
func TestCrossKindPolicyFieldIsRejected(t *testing.T) {
	ds := []*psi.Graph{oneEdge[0], psi.MustNewGraph("h", []psi.Label{1, 1}, [][2]int{{0, 1}})}
	path := saveSnapshot(t, newDatasetEngine(t, ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes"}}))
	build := map[string]func(psi.EngineOptions) (*psi.Engine, error){
		"stored graph": buildStored,
		"dataset":      func(o psi.EngineOptions) (*psi.Engine, error) { return psi.NewDatasetEngine(ds, o) },
		"snapshot": func(o psi.EngineOptions) (*psi.Engine, error) {
			o.Snapshot = path
			return psi.NewDatasetEngine(nil, o)
		},
		// The option is rejected before the file is opened.
		"missing snapshot": func(o psi.EngineOptions) (*psi.Engine, error) {
			o.Snapshot = filepath.Join(t.TempDir(), "missing.psisnap")
			return psi.NewDatasetEngine(nil, o)
		},
	}
	for _, tc := range []struct {
		kind string
		opts psi.EngineOptions
		want string
	}{
		{"stored graph", psi.EngineOptions{IndexPolicy: psi.IndexFixed}, `EngineOptions.IndexPolicy ("fixed") does not apply to a stored-graph engine; set Mode`},
		{"stored graph", psi.EngineOptions{IndexPolicy: psi.IndexRace, Mode: psi.ModeRace}, "set Mode"},
		{"dataset", psi.EngineOptions{Mode: psi.ModeSingle}, `EngineOptions.Mode ("single") does not apply to a dataset engine; set IndexPolicy`},
		{"dataset", psi.EngineOptions{Mode: psi.ModeAuto, IndexPolicy: psi.IndexAuto}, "set IndexPolicy"},
		{"snapshot", psi.EngineOptions{Mode: psi.ModeRace}, "set IndexPolicy"},
		{"missing snapshot", psi.EngineOptions{Mode: psi.ModeRace}, "set IndexPolicy"},
		{"missing snapshot", psi.EngineOptions{IndexPolicy: "racce"}, `unknown EngineOptions.IndexPolicy "racce"`},
		{"missing snapshot", psi.EngineOptions{Indexes: []string{"ftv", "gsx"}}, `unknown index kind "gsx"`},
	} {
		rejects(t, tc.kind, build[tc.kind], tc.opts, tc.want)
	}
}

// TestAnswerStreamReportsKill pins the one kill convention on both engine
// kinds and every entry point form — Query, Plan+Execute and the stream form
// (QueryStream or AnswerStream): without a budget each answers what the
// oracle does, and under an expired one each returns a nil error, Killed,
// and Found equal to what reached the caller, never an error over a
// truncated answer. Each call moves Queries by one, Streamed only on the
// stream form, and Killed once per killed run.
func TestAnswerStreamReportsKill(t *testing.T) {
	const limit = 100000
	ctx := t.Context()
	g := psi.GenerateYeastLike(psi.Tiny, 3)
	gq := psi.ExtractQuery(g, 5, 11)
	embs, err := psi.MustNewMatcher(psi.VF2, g).Match(ctx, gq, limit)
	if err != nil {
		t.Fatal(err)
	}
	ds := psi.GeneratePPI(psi.Tiny, 1)
	dq := psi.ExtractQuery(ds[0], 4, 7)
	ids := difftest.Want(ds, dq)
	// items renders an answer for comparison; embeddings come in the order
	// the winning attempt found them, so they compare as a set.
	items := func(embs []psi.Embedding, ids []int) []string {
		var out []string
		for _, e := range embs {
			out = append(out, fmt.Sprint(e))
		}
		slices.Sort(out)
		for _, id := range ids {
			out = append(out, fmt.Sprint(id))
		}
		return out
	}
	kinds := []struct {
		name   string
		build  func(psi.EngineOptions) (*psi.Engine, error)
		q      *psi.Graph
		want   []string
		stream func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error)
	}{
		{"stored graph", func(o psi.EngineOptions) (*psi.Engine, error) { return psi.NewEngine(g, o) }, gq, items(embs, nil),
			func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error) {
				var got []psi.Embedding
				res, err := eng.QueryStream(ctx, q, limit, psi.SinkFunc(func(e psi.Embedding) bool {
					got = append(got, e)
					return true
				}))
				return items(got, nil), res, err
			}},
		{"dataset", func(o psi.EngineOptions) (*psi.Engine, error) {
			o.Indexes = []string{"ftv"}
			return psi.NewDatasetEngine(ds, o)
		}, dq, items(nil, ids),
			func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error) {
				var got []int
				res, err := eng.AnswerStream(ctx, q, func(id int) bool {
					got = append(got, id)
					return true
				})
				return items(nil, got), res, err
			}},
	}
	collect := func(res *psi.QueryResult, err error) ([]string, *psi.QueryResult, error) {
		if err != nil {
			return nil, nil, err
		}
		return items(res.Embeddings, res.GraphIDs), res, nil
	}
	for _, kind := range kinds {
		forms := []struct {
			name     string
			streamed int64 // what the form moves the Streamed counter by
			ask      func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error)
		}{
			{"Query", 0, func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error) {
				return collect(eng.Query(ctx, q, limit))
			}},
			{"Plan+Execute", 0, func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]string, *psi.QueryResult, error) {
				p, err := eng.Plan(q)
				if err != nil {
					return nil, nil, err
				}
				return collect(eng.Execute(ctx, p, limit))
			}},
			{"stream", 1, kind.stream},
		}
		for _, budget := range []time.Duration{0, time.Nanosecond} {
			eng, err := kind.build(psi.EngineOptions{Timeout: budget})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			killed := budget > 0
			var kills int64 // what a call moves the Killed counter by
			if killed {
				kills = 1
			}
			for _, form := range forms {
				name := fmt.Sprintf("%s/%s/budget=%v", kind.name, form.name, budget)
				c0 := eng.Counters()
				got, res, err := form.ask(ctx, eng, kind.q)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if res.Killed != killed || res.Found != len(got) {
					t.Errorf("%s: Killed %v, Found %d for %d items that reached the caller; want Killed %v", name, res.Killed, res.Found, len(got), killed)
				}
				if !killed && !slices.Equal(got, kind.want) {
					t.Errorf("%s: answered %v, oracle %v", name, got, kind.want)
				}
				c := eng.Counters()
				moved := [3]int64{c.Queries - c0.Queries, c.Streamed - c0.Streamed, c.Killed - c0.Killed}
				if want := [3]int64{1, form.streamed, kills}; moved != want {
					t.Errorf("%s: Queries, Streamed, Killed moved by %v, want %v", name, moved, want)
				}
			}
		}
	}
}
