package mcmf

import (
	"math/rand"
	"testing"
)

// randomNetwork adds a reproducible random edge set over n nodes.
func randomNetwork(t testing.TB, g *Graph, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n*6; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		if _, err := g.AddEdge(from, to, int64(1+rng.Intn(20)), rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReinitMatchesFreshGraph: a Reinit-ed graph rebuilt with the same
// edges must solve to the exact flow, cost, and per-edge attribution of
// a freshly allocated graph — the contract that lets the scheduler hold
// one arena graph across θ iterations and rounds.
func TestReinitMatchesFreshGraph(t *testing.T) {
	const n = 60
	for _, sv := range solvers {
		alg := sv.name
		reused := NewGraph(0)
		for trial := 0; trial < 5; trial++ {
			seed := int64(100 + trial)
			reused.Reinit(n)
			randomNetwork(t, reused, n, seed)

			fresh := NewGraph(n)
			randomNetwork(t, fresh, n, seed)

			gotR, err := sv.solve(reused, 0, n-1, 1<<40)
			if err != nil {
				t.Fatalf("%v trial %d: reused solve: %v", alg, trial, err)
			}
			gotF, err := sv.solve(fresh, 0, n-1, 1<<40)
			if err != nil {
				t.Fatalf("%v trial %d: fresh solve: %v", alg, trial, err)
			}
			if gotR != gotF {
				t.Fatalf("%v trial %d: reused result %+v != fresh %+v", alg, trial, gotR, gotF)
			}
			for id := 0; id < fresh.NumEdges(); id++ {
				if rf, ff := reused.Flow(EdgeID(id)), fresh.Flow(EdgeID(id)); rf != ff {
					t.Fatalf("%v trial %d: edge %d flow %d != fresh %d", alg, trial, id, rf, ff)
				}
			}
			if _, err := CheckFlow(reused, 0, n-1); err != nil {
				t.Fatalf("%v trial %d: %v", alg, trial, err)
			}
		}
	}
}

// TestReinitShrinksNodes: growing, shrinking, and regrowing the node
// count through Reinit must never leak adjacency from a previous
// incarnation of a node slot.
func TestReinitShrinksNodes(t *testing.T) {
	g := NewGraph(0)
	g.Reinit(4)
	mustAdd := func(from, to int, cap int64, cost float64) {
		t.Helper()
		if _, err := g.AddEdge(from, to, cap, cost); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 2, 5, 1)
	mustAdd(2, 3, 5, 1)
	mustAdd(0, 1, 5, 1)
	mustAdd(1, 3, 5, 1)
	if res, err := g.MinCostMaxFlow(0, 3); err != nil || res.Flow != 10 {
		t.Fatalf("diamond solve = %+v, %v; want flow 10", res, err)
	}

	g.Reinit(2)
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("after Reinit(2): %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	mustAdd(0, 1, 3, 2)
	res, err := g.MinCostMaxFlow(0, 1)
	if err != nil || res.Flow != 3 || res.Cost != 6 {
		t.Fatalf("post-shrink solve = %+v, %v; want flow 3 cost 6", res, err)
	}

	// Regrow past the original size: revived and brand-new slots both
	// start with empty adjacency.
	g.Reinit(6)
	for v := 0; v < 6; v++ {
		if n := g.NumNodes(); n != 6 {
			t.Fatalf("NumNodes = %d, want 6", n)
		}
	}
	mustAdd(0, 5, 2, 1)
	if res, err := g.MinCostMaxFlow(0, 5); err != nil || res.Flow != 2 {
		t.Fatalf("post-regrow solve = %+v, %v; want flow 2", res, err)
	}
}

// TestSolveSteadyStateAllocs locks the arena contract: once a reused
// graph has warmed its scratch, Solve performs zero allocations.
// (The oracle allocates its own scratch per call and is not held to
// this.)
func TestSolveSteadyStateAllocs(t *testing.T) {
	g := NewGraph(0)
	g.Reinit(80)
	randomNetwork(t, g, 80, 9)
	// Warm-up sizes the scratch and the heap.
	if _, err := g.Solve(0, 79, 1<<40); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.Solve(0, 79, 1<<40); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Solve allocates %v objects per run, want 0", allocs)
	}
}
