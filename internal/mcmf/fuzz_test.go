package mcmf

import (
	"math"
	"slices"
	"testing"
)

// FuzzGraphOps drives a Graph through an arbitrary byte-coded sequence
// of AddNode/AddEdge/Solve operations plus a repeat of the last solve.
// The solver sits under the scheduler's degraded-mode recovery path, so
// the contract here is strict: no call may panic, invalid input must be
// refused with an error, every successful Solve must keep each edge's
// flow within its capacity and agree with the oracle on flow and cost,
// and solving the same graph again must repeat the result exactly.
func FuzzGraphOps(f *testing.F) {
	// Seed corpus: a unit diamond with a solve, a zero-capacity edge,
	// out-of-range node references, and one edge solved twice.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 5, 1, 1, 1, 2, 3, 2, 1, 2, 3, 4, 1, 2, 0, 3, 10, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 7, 2, 0, 1, 100, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 3, 2, 0, 1, 9, 0, 3, 2, 0, 1, 9, 1})
	f.Add([]byte{0, 1, 200, 7, 1, 1, 2, 250, 0, 9, 9})
	f.Add([]byte{0, 0, 1, 8, 9, 13, 132, 2, 8, 9, 10, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		g := NewGraph(0)
		var edges []EdgeID
		// The last successful solve: its arguments, its result and the
		// per-edge flows it left, while no edge has been added since.
		var last struct {
			ok           bool
			source, sink int
			limit        int64
			res          Result
			flows        []int64
		}
		flows := func() []int64 {
			out := make([]int64, len(edges))
			for k, id := range edges {
				out[k] = g.Flow(id)
			}
			return out
		}
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
				if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() || capacity < 0 || cost < 0 {
					t.Fatalf("AddEdge(%d, %d, %d, %v) accepted invalid input", from, to, capacity, cost)
				}
				edges = append(edges, id)
				last.ok = false
			case 2: // Solve, on the oracle and then on the solver
				source := int(pop()) - 8
				sink := int(pop()) - 8
				limit := int64(pop())
				want, werr := referenceBellmanFord(g, source, sink, limit)
				res, err := g.Solve(source, sink, limit)
				if (err == nil) != (werr == nil) {
					t.Fatalf("Solve error %v, oracle error %v", err, werr)
				}
				if err != nil {
					continue
				}
				if res.Flow < 0 || res.Flow > limit {
					t.Fatalf("Solve flow %d outside [0, %d]", res.Flow, limit)
				}
				if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
					t.Fatalf("Solve returned non-finite cost %v", res.Cost)
				}
				// Quarter-multiple costs times integer flows sum exactly.
				if res.Flow != want.Flow || res.Cost != want.Cost {
					t.Fatalf("Solve = flow %d cost %v, oracle = flow %d cost %v",
						res.Flow, res.Cost, want.Flow, want.Cost)
				}
				last.ok, last.source, last.sink, last.limit = true, source, sink, limit
				last.res, last.flows = res, flows()
			case 3: // Solve the same graph again
				if !last.ok {
					continue
				}
				res, err := g.Solve(last.source, last.sink, last.limit)
				if err != nil {
					t.Fatalf("repeated Solve: %v", err)
				}
				if res != last.res {
					t.Fatalf("repeated Solve = %+v, first %+v", res, last.res)
				}
				if got := flows(); !slices.Equal(got, last.flows) {
					t.Fatalf("repeated Solve left flows %v, first %v", got, last.flows)
				}
			}
		}
		// Whatever state the op sequence left: each edge's flow stays
		// within [0, capacity].
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
