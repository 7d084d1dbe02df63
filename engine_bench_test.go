package psi_test

// First-result-latency benchmarks for the streaming Engine. The contrast
// that matters: BenchmarkEngineFirstResult stops the race at the very
// first emitted embedding (the streaming fast path the Ψ race wants),
// while BenchmarkEngineEnumerate10k pays for up to 10 000 embeddings — the
// only option before the streaming refactor.

import (
	"context"
	"testing"

	psi "github.com/psi-graph/psi"
)

func benchEngine(b *testing.B) (*psi.Engine, *psi.Graph) {
	b.Helper()
	g := psi.GenerateYeastLike(psi.Small, 1)
	eng, err := psi.NewEngine(g, psi.EngineOptions{
		Algorithms: []psi.Algorithm{psi.GraphQL, psi.SPath},
		Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng, psi.ExtractQuery(g, 8, 42)
}

// BenchmarkEngineFirstResult measures time-to-first-embedding: the sink
// stops the race after one emission, so losers are cancelled and the
// query never pays for full enumeration.
func BenchmarkEngineFirstResult(b *testing.B) {
	eng, q := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		res, err := eng.QueryStream(ctx, q, 1<<30, psi.SinkFunc(func(psi.Embedding) bool {
			found = true
			return false
		}))
		if err != nil {
			b.Fatal(err)
		}
		if !found || res.Found != 1 {
			b.Fatalf("expected exactly one streamed embedding, got %d", res.Found)
		}
	}
}

// BenchmarkEngineEnumerate10k is the slice-path contrast: the same query
// materializing 10000 embeddings before the caller sees any. (The truly
// unbounded enumeration runs for minutes on this query — the gap the
// streaming path exists to close — which is too slow for a CI smoke
// stage, so the cap keeps the benchmark bounded while still dwarfing
// time-to-first-result by three orders of magnitude.)
func BenchmarkEngineEnumerate10k(b *testing.B) {
	eng, q := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(ctx, q, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if res.Found == 0 {
			b.Fatal("expected embeddings")
		}
	}
}

// BenchmarkEngineDecision is the decision-query shape (limit <= 0)
// through the plan/execute path — the FTV verification inner loop.
func BenchmarkEngineDecision(b *testing.B) {
	eng, q := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(ctx, q, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Found != 1 {
			b.Fatalf("decision found %d", res.Found)
		}
	}
}
