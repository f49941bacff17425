package mcmf

import (
	"fmt"
	"math"
)

// solvers pairs the solver with its oracle under the subtest names the
// two had as selectable algorithms, so every test that ranges over it
// cross-checks Solve against an independent implementation.
var solvers = []struct {
	name  string
	solve func(g *Graph, source, sink int, limit int64) (Result, error)
}{
	{"ssp-dijkstra", (*Graph).Solve},
	{"bellman-ford", referenceBellmanFord},
}

// referenceBellmanFord is the Bellman-Ford / SPFA augmenting solver
// that shipped as mcmf.BellmanFord, kept verbatim (only its scratch is
// now its own, and it clears the graph's flow first, as Solve does) as
// the oracle for Solve: it shares no shortest-path code with
// solveDijkstra — no potentials, no heap, no reduced costs — and has no
// non-negativity requirement.
func referenceBellmanFord(g *Graph, source, sink int, limit int64) (Result, error) {
	if err := g.checkSolveArgs(source, sink, limit); err != nil {
		return Result{}, err
	}
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i].cap += g.arcs[i+1].cap
		g.arcs[i+1].cap = 0
	}
	n := len(g.adj)
	dist := make([]float64, n)
	prevArc := make([]int32, n)
	inQueue := make([]bool, n)
	relaxed := make([]int32, n)
	var spare []int32 // the queue's backing array, kept across augmentations
	var res Result

	for res.Flow < limit {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
			inQueue[i] = false
			relaxed[i] = 0
		}
		dist[source] = 0
		queue := spare[:0]
		if cap(queue) < n {
			queue = make([]int32, 0, n)
		}
		queue = append(queue, int32(source))
		inQueue[source] = true
		// FIFO via a head cursor so the backing array survives for the
		// next augmentation instead of being sliced away.
		for head := 0; head < len(queue); {
			u := int(queue[head])
			head++
			inQueue[u] = false
			for _, ai := range g.adj[u] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				nd := dist[u] + a.cost
				if nd < dist[v]-costEps {
					dist[v] = nd
					prevArc[v] = ai
					if !inQueue[v] {
						relaxed[v]++
						if relaxed[v] > int32(n) {
							return Result{}, fmt.Errorf("mcmf: negative-cost cycle reachable from source")
						}
						queue = append(queue, int32(v))
						inQueue[v] = true
					}
				}
			}
		}
		spare = queue[:0]
		if math.IsInf(dist[sink], 1) {
			break
		}
		push := limit - res.Flow
		for v := sink; v != source; {
			ai := prevArc[v]
			if g.arcs[ai].cap < push {
				push = g.arcs[ai].cap
			}
			v = int(g.arcs[ai^1].to)
		}
		for v := sink; v != source; {
			ai := prevArc[v]
			g.arcs[ai].cap -= push
			g.arcs[ai^1].cap += push
			res.Cost += g.arcs[ai].cost * float64(push)
			v = int(g.arcs[ai^1].to)
		}
		res.Flow += push
		res.Paths++
	}
	return res, nil
}
