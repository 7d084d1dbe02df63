package rewrite

// End-to-end round-trip property for the rewriting machinery — the corner
// the unit tests above leave open. The framework's soundness rests on one
// identity: for any rewriting kind k, searching the caller's query under
// k's rank (match.Ranked) yields exactly the embeddings of the unranked
// search, and exactly those of the rewritten copy's search translated back
// through the permutation. The tests check it against a real matcher (VF2)
// over random stored graphs, queries, frequency maps and seeds, for every
// kind including arbitrary random permutations.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

// roundTripKinds is every rewriting the framework races.
var roundTripKinds = []Kind{Orig, ILF, IND, DND, ILFIND, ILFDND, Random}

// embeddingLimit bounds enumeration; a sample that hits it is skipped (a
// truncated set cannot be compared — different enumeration orders truncate
// at different embeddings).
const embeddingLimit = 20000

// embeddingSet canonicalizes a set of embeddings for order-insensitive
// comparison (matchers enumerate in query-vertex order, which the rewriting
// deliberately changes).
func embeddingSet(embs []match.Embedding) []string {
	out := make([]string, len(embs))
	for i, e := range embs {
		out[i] = fmt.Sprint(e)
	}
	sort.Strings(out)
	return out
}

// randomFrequencies returns an adversarial frequency map: random counts,
// with some labels deliberately missing (frequency 0, the "unseen label"
// path of the ILF comparators).
func randomFrequencies(r *rand.Rand, labels int) Frequencies {
	f := make(Frequencies)
	for l := 0; l < labels; l++ {
		if r.Intn(4) == 0 {
			continue
		}
		f[graph.Label(l)] = r.Intn(50)
	}
	return f
}

// TestRewriteRoundTripProperty is the property itself: over random stored
// graphs, queries, frequency maps and seeds, every rewriting's embeddings
// mapped back through its permutation equal the unrewritten matcher's
// embeddings — and each mapped-back embedding independently verifies
// against the original query.
func TestRewriteRoundTripProperty(t *testing.T) {
	const samples = 25
	checked := 0
	for seed := int64(1); seed <= samples; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 8+r.Intn(8), 3)
		q := workload.Extract(r, g, 3+r.Intn(4))
		m := vf2.New(g)
		want, err := m.Match(context.Background(), q, embeddingLimit)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(want) >= embeddingLimit {
			continue // nothing to round-trip, or truncated (incomparable)
		}
		wantSet := embeddingSet(want)
		freqs := []Frequencies{FrequenciesOf(g), randomFrequencies(r, 3), nil}
		for _, k := range roundTripKinds {
			for fi, f := range freqs {
				checkRoundTrip(t, fmt.Sprintf("seed %d %v freq#%d", seed, k, fi), m, g, q, wantSet, f, k, seed)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("property vacuous: no sample produced embeddings — enlarge the generator")
	}
}

// rankedMatch returns every embedding of q that m finds under rank, in q's
// own numbering.
func rankedMatch(t *testing.T, m *vf2.Matcher, q *graph.Graph, rank graph.Permutation) []match.Embedding {
	t.Helper()
	var out []match.Embedding
	sink := match.SinkFunc(func(e match.Embedding) bool {
		out = append(out, slices.Clone(e))
		return true
	})
	if err := match.Ranked(context.Background(), m, q, rank, nil, embeddingLimit, sink); err != nil {
		t.Fatal(err)
	}
	return out
}

// translateBack renumbers an embedding of q.MustPermute(perm) into q's
// numbering: q's vertex u is the copy's perm[u].
func translateBack(e match.Embedding, perm graph.Permutation) match.Embedding {
	out := make(match.Embedding, len(e))
	for u, nw := range perm {
		out[u] = e[nw]
	}
	return out
}

// checkRoundTrip checks the identity for one rewriting of q: Compute returns
// a permutation of [0, q.N()) that is an isomorphism witness onto the
// rewritten copy; the embeddings m finds for q under that rank are valid
// embeddings of q and exactly wantSet; and so are those it finds for the
// rewritten copy, translated back through the permutation.
func checkRoundTrip(t *testing.T, tag string, m *vf2.Matcher, g, q *graph.Graph, wantSet []string, f Frequencies, k Kind, seed int64) {
	t.Helper()
	perm := Compute(q, f, k, seed)
	if len(perm) != q.N() || perm.Validate() != nil {
		t.Fatalf("%s: %v is not a permutation of [0,%d)", tag, perm, q.N())
	}
	q2 := q.MustPermute(perm)
	if !graph.IsIsomorphismWitness(q, q2, perm) {
		t.Fatalf("%s: permutation is not an isomorphism witness", tag)
	}
	ranked := rankedMatch(t, m, q, perm)
	for _, e := range ranked {
		if verr := match.VerifyEmbedding(q, g, e); verr != nil {
			t.Fatalf("%s: ranked embedding %v invalid for the original query: %v", tag, e, verr)
		}
	}
	if gotSet := embeddingSet(ranked); !slices.Equal(gotSet, wantSet) {
		t.Fatalf("%s: ranked embeddings %v, want %v", tag, gotSet, wantSet)
	}
	got, err := m.Match(context.Background(), q2, embeddingLimit)
	if err != nil {
		t.Fatal(err)
	}
	mapped := make([]match.Embedding, len(got))
	for i, e := range got {
		mapped[i] = translateBack(e, perm)
	}
	if gotSet := embeddingSet(mapped); !slices.Equal(gotSet, wantSet) {
		t.Fatalf("%s: rewritten copy's embeddings, translated back, %v, want %v", tag, gotSet, wantSet)
	}
}

// FuzzRewriteRoundTrip is the round-trip property over fuzzed inputs: a small
// connected stored graph and a query grown in it (from a seed, a size and an
// alphabet), a frequency map (a count per label, labels past the input's
// length unseen, nil when it is empty), and the rewriting seed. Every kind
// must round-trip, by checkRoundTrip, unless the query has no embedding or
// too many to compare.
func FuzzRewriteRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(3), []byte{5, 0, 9}, int64(7))
	f.Add(int64(2), uint8(12), uint8(1), uint8(5), []byte{}, int64(-1))
	f.Add(int64(3), uint8(1), uint8(2), uint8(0), []byte{1}, int64(0))
	f.Fuzz(func(t *testing.T, graphSeed int64, size, labels, edges uint8, counts []byte, seed int64) {
		r := rand.New(rand.NewSource(graphSeed))
		g := randomConnected(r, 1+int(size%14), 1+int(labels%4))
		q := workload.Extract(r, g, int(edges%6))
		m := vf2.New(g)
		want, err := m.Match(context.Background(), q, embeddingLimit)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(want) >= embeddingLimit {
			return
		}
		var freqs Frequencies
		if len(counts) > 0 {
			freqs = make(Frequencies, len(counts))
			for l, c := range counts {
				freqs[graph.Label(l)] = int(c)
			}
		}
		wantSet := embeddingSet(want)
		for _, k := range roundTripKinds {
			checkRoundTrip(t, k.String(), m, g, q, wantSet, freqs, k, seed)
		}
	})
}

// TestRewriteRoundTripArbitraryPermutations extends the property beyond the
// named kinds: any uniformly random permutation (fresh seeds, not just the
// Random kind raced in production) must round-trip the same way.
func TestRewriteRoundTripArbitraryPermutations(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := randomConnected(r, 12, 3)
	q := workload.Extract(r, g, 4)
	m := vf2.New(g)
	want, err := m.Match(context.Background(), q, embeddingLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("property vacuous: the query has no embedding")
	}
	wantSet := embeddingSet(want)
	for trial := 0; trial < 30; trial++ {
		checkRoundTrip(t, fmt.Sprintf("trial %d", trial), m, g, q, wantSet, nil, Random, r.Int63())
	}
}
