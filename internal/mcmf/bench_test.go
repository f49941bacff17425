package mcmf

import (
	"math/rand"
	"testing"
)

// benchEdges is one reproducible random edge list shared by the solver
// benches.
func benchEdges(n int) []struct {
	from, to int
	cap      int64
	cost     float64
} {
	rng := rand.New(rand.NewSource(1))
	edges := make([]struct {
		from, to int
		cap      int64
		cost     float64
	}, 0, n*6)
	for k := 0; k < n*6; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		edges = append(edges, struct {
			from, to int
			cap      int64
			cost     float64
		}{from, to, int64(1 + rng.Intn(20)), rng.Float64() * 10})
	}
	return edges
}

// BenchmarkMCMFSolveReuse measures the steady-state arena pattern the
// scheduler uses: Reinit one long-lived graph, rebuild the edges, and
// solve — no per-round graph or scratch allocation. One untimed solve
// first grows the graph's storage, so allocs/op reads the steady state
// rather than the first build's share.
func BenchmarkMCMFSolveReuse(b *testing.B) {
	const n = 200
	edges := benchEdges(n)
	g := NewGraph(0)
	solve := func() {
		g.Reinit(n)
		for _, e := range edges {
			if _, err := g.AddEdge(e.from, e.to, e.cap, e.cost); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.MinCostMaxFlow(0, n-1); err != nil {
			b.Fatal(err)
		}
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}
