package mcmf

import (
	"math"
	"testing"
)

// FuzzGraphOps drives a Graph through an arbitrary byte-coded sequence
// of AddNode/AddEdge/Solve/Reset operations. The solver sits under the
// scheduler's degraded-mode recovery path, so the contract here is
// strict: no call may panic, errors must be returned instead, and every
// successful Solve must report a non-negative flow with a finite cost
// while keeping each edge's flow within its capacity.
func FuzzGraphOps(f *testing.F) {
	// Seed corpus: a unit diamond with a solve, a zero-capacity edge, a
	// reset-then-resolve, and out-of-range node references.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 5, 1, 1, 1, 2, 3, 2, 1, 2, 3, 4, 1, 2, 0, 3, 10, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 7, 2, 0, 1, 100, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 3, 2, 0, 1, 9, 0, 3, 2, 0, 1, 9, 1})
	f.Add([]byte{0, 1, 200, 7, 1, 1, 2, 250, 0, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		g := NewGraph(0)
		var edges []EdgeID
		pop := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for op := 0; op < maxOps && len(data) > 0; op++ {
			switch pop() % 4 {
			case 0: // AddNode
				if g.NumNodes() < 64 {
					g.AddNode()
				}
			case 1: // AddEdge — deliberately allowed to go out of range
				from := int(pop()) - 8
				to := int(pop()) - 8
				capacity := int64(pop()) - 8
				cost := float64(int(pop())-128) / 4
				id, err := g.AddEdge(from, to, capacity, cost)
				if err != nil {
					continue
				}
				if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() || capacity < 0 {
					t.Fatalf("AddEdge(%d, %d, %d, %v) accepted invalid input", from, to, capacity, cost)
				}
				edges = append(edges, id)
			case 2: // Solve, on the solver or its oracle
				source := int(pop()) - 8
				sink := int(pop()) - 8
				limit := int64(pop())
				res, err := solvers[pop()%2].solve(g, source, sink, limit)
				if err != nil {
					continue
				}
				if res.Flow < 0 || res.Flow > limit {
					t.Fatalf("Solve flow %d outside [0, %d]", res.Flow, limit)
				}
				if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
					t.Fatalf("Solve returned non-finite cost %v", res.Cost)
				}
			case 3: // Reset
				g.Reset()
				for _, id := range edges {
					if fl := g.Flow(id); fl != 0 {
						t.Fatalf("edge %d carries flow %d after Reset", id, fl)
					}
				}
			}
		}
		// Flow conservation on whatever state the op sequence left: each
		// edge's flow stays within [0, capacity].
		for _, id := range edges {
			e, err := g.EdgeInfo(id)
			if err != nil {
				t.Fatalf("EdgeInfo(%d): %v", id, err)
			}
			if e.Flow < 0 || e.Flow > e.Capacity {
				t.Fatalf("edge %d flow %d outside [0, %d]", id, e.Flow, e.Capacity)
			}
		}
	})
}
