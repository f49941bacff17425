// Package mcmf implements exact minimum-cost maximum-flow over directed
// graphs with integer capacities and non-negative real (float64) edge
// costs.
//
// The solver is successive shortest paths with Johnson potentials and
// a Dijkstra inner loop, started from zero flow and zero potentials.
// The package's tests hold it to a Bellman-Ford / SPFA augmenting
// solver (reference_test.go), the textbook successor of the
// Ford-Fulkerson scheme the paper cites.
//
// The request-balancing stage of RBCAer (paper Sec. IV-A/B) builds its
// Gd and Gc networks on this package.
package mcmf

import (
	"fmt"
	"math"
)

// EdgeID identifies an edge returned by AddEdge.
type EdgeID int

// Edge describes one directed edge and its current flow.
type Edge struct {
	From     int
	To       int
	Capacity int64
	Cost     float64
	Flow     int64
}

// Graph is a directed flow network. The zero value is an empty graph;
// nodes are added with AddNode or reserved up front with NewGraph.
// Graph is not safe for concurrent mutation.
//
// A Graph owns reusable solver scratch (distance/potential/parent
// vectors and the Dijkstra heap), sized on first use and retained
// across Solve calls and Reinit, so steady-state solves on a reused
// graph perform no allocations.
type Graph struct {
	adj  [][]int32 // node -> indexes into arcs
	arcs []arc     // arcs[2k], arcs[2k+1] are a residual pair

	// Solver scratch, grown by ensureScratch and reused across solves.
	dist    []float64
	pot     []float64
	prevArc []int32
	visited []bool
	heap    []nodeDist
}

// arc is half of a residual edge pair. The reverse arc is arcs[i^1].
type arc struct {
	to   int32
	cap  int64 // residual capacity
	cost float64
}

// NewGraph returns a graph with n initial nodes numbered 0..n-1.
func NewGraph(n int) *Graph {
	g := &Graph{}
	if n > 0 {
		g.adj = make([][]int32, n)
	}
	return g
}

// NumNodes returns the current node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges added with AddEdge.
func (g *Graph) NumEdges() int { return len(g.arcs) / 2 }

// AddNode adds a node and returns its index.
func (g *Graph) AddNode() int {
	if len(g.adj) < cap(g.adj) {
		// Revive capacity left behind by Reinit, truncating whatever
		// adjacency the previous incarnation of this node slot held.
		g.adj = g.adj[:len(g.adj)+1]
		g.adj[len(g.adj)-1] = g.adj[len(g.adj)-1][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return len(g.adj) - 1
}

// Reinit resets the graph to n fresh nodes and no edges while retaining
// all allocated storage — adjacency lists, the arc array, and the
// solver scratch — for reuse. A caller that builds a new network every
// round can hold one Graph and Reinit it instead of allocating a fresh
// graph per round.
func (g *Graph) Reinit(n int) {
	g.arcs = g.arcs[:0]
	if n > cap(g.adj) {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int32, n-cap(g.adj))...)
	} else {
		g.adj = g.adj[:n]
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// AddEdge adds a directed edge with the given capacity and per-unit
// cost and returns its identifier. Capacity must be non-negative and
// cost finite and non-negative.
func (g *Graph) AddEdge(from, to int, capacity int64, cost float64) (EdgeID, error) {
	if from < 0 || from >= len(g.adj) {
		return 0, fmt.Errorf("mcmf: from node %d out of range [0, %d)", from, len(g.adj))
	}
	if to < 0 || to >= len(g.adj) {
		return 0, fmt.Errorf("mcmf: to node %d out of range [0, %d)", to, len(g.adj))
	}
	if capacity < 0 {
		return 0, fmt.Errorf("mcmf: negative capacity %d", capacity)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("mcmf: non-finite cost %v", cost)
	}
	if cost < 0 {
		return 0, fmt.Errorf("mcmf: negative cost %v", cost)
	}
	id := EdgeID(len(g.arcs) / 2)
	g.adj[from] = append(g.adj[from], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: int32(to), cap: capacity, cost: cost})
	g.adj[to] = append(g.adj[to], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: int32(from), cap: 0, cost: -cost})
	return id, nil
}

// EdgeInfo returns the edge's endpoints, capacity, cost, and current
// flow.
func (g *Graph) EdgeInfo(id EdgeID) (Edge, error) {
	i := int(id) * 2
	if i < 0 || i+1 >= len(g.arcs) {
		return Edge{}, fmt.Errorf("mcmf: edge id %d out of range", id)
	}
	fwd := g.arcs[i]
	rev := g.arcs[i+1]
	return Edge{
		From:     int(rev.to),
		To:       int(fwd.to),
		Capacity: fwd.cap + rev.cap,
		Cost:     fwd.cost,
		Flow:     rev.cap,
	}, nil
}

// Flow returns the current flow on the edge, or 0 for an invalid id.
func (g *Graph) Flow(id EdgeID) int64 {
	i := int(id) * 2
	if i < 0 || i+1 >= len(g.arcs) {
		return 0
	}
	return g.arcs[i+1].cap
}

// Result reports the outcome of a flow computation.
type Result struct {
	Flow  int64   // total flow pushed from source to sink
	Cost  float64 // total cost of that flow
	Paths int     // number of augmenting paths used to push that flow
}

// MinCostMaxFlow pushes the maximum feasible flow from source to sink
// at minimum total cost.
func (g *Graph) MinCostMaxFlow(source, sink int) (Result, error) {
	return g.Solve(source, sink, math.MaxInt64)
}

// Solve computes a minimum-cost flow of value at most limit from source
// to sink, starting from zero flow: whatever flow an earlier solve left
// on the graph is cleared first.
func (g *Graph) Solve(source, sink int, limit int64) (Result, error) {
	if err := g.checkSolveArgs(source, sink, limit); err != nil {
		return Result{}, err
	}
	return g.solveDijkstra(source, sink, limit), nil
}

// checkSolveArgs rejects endpoints outside the graph and a negative
// limit.
func (g *Graph) checkSolveArgs(source, sink int, limit int64) error {
	if source < 0 || source >= len(g.adj) {
		return fmt.Errorf("mcmf: source %d out of range [0, %d)", source, len(g.adj))
	}
	if sink < 0 || sink >= len(g.adj) {
		return fmt.Errorf("mcmf: sink %d out of range [0, %d)", sink, len(g.adj))
	}
	if source == sink {
		return fmt.Errorf("mcmf: source equals sink (%d)", source)
	}
	if limit < 0 {
		return fmt.Errorf("mcmf: negative flow limit %d", limit)
	}
	return nil
}

// costEps absorbs floating-point drift when comparing path costs.
const costEps = 1e-9

// ensureScratch sizes the reusable solver scratch for n nodes.
func (g *Graph) ensureScratch(n int) {
	if cap(g.dist) < n {
		g.dist = make([]float64, n)
		g.pot = make([]float64, n)
		g.prevArc = make([]int32, n)
		g.visited = make([]bool, n)
	}
	g.dist = g.dist[:n]
	g.pot = g.pot[:n]
	g.prevArc = g.prevArc[:n]
	g.visited = g.visited[:n]
}

func (g *Graph) solveDijkstra(source, sink int, limit int64) Result {
	n := len(g.adj)
	g.ensureScratch(n)
	pot := g.pot
	for i := range pot {
		pot[i] = 0
	}
	// Start from zero flow. With every cost non-negative, zero
	// potentials are then valid for the first Dijkstra pass.
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i].cap += g.arcs[i+1].cap
		g.arcs[i+1].cap = 0
	}

	dist := g.dist
	prevArc := g.prevArc
	visited := g.visited
	var res Result

	for res.Flow < limit {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
			visited[i] = false
		}
		dist[source] = 0
		pq := g.heap[:0]
		pq = pushND(pq, nodeDist{node: int32(source), dist: 0})
		for len(pq) > 0 {
			var nd nodeDist
			nd, pq = popND(pq)
			u := int(nd.node)
			if visited[u] {
				continue
			}
			visited[u] = true
			for _, ai := range g.adj[u] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				rc := a.cost + pot[u] - pot[v]
				if rc < 0 {
					// Valid potentials leave only floating-point
					// drift below zero.
					rc = 0
				}
				nd2 := dist[u] + rc
				if nd2 < dist[v]-costEps {
					dist[v] = nd2
					prevArc[v] = ai
					pq = pushND(pq, nodeDist{node: a.to, dist: nd2})
				}
			}
		}
		g.heap = pq // retain grown capacity for the next iteration
		if math.IsInf(dist[sink], 1) {
			break // no augmenting path remains
		}
		for i := range pot {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := limit - res.Flow
		for v := sink; v != source; {
			ai := prevArc[v]
			if g.arcs[ai].cap < push {
				push = g.arcs[ai].cap
			}
			v = int(g.arcs[ai^1].to)
		}
		// Apply.
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
	return res
}

// nodeDist is a priority-queue entry for Dijkstra.
type nodeDist struct {
	node int32
	dist float64
}

// pushND and popND implement a binary min-heap over a plain []nodeDist,
// replacing container/heap whose interface{} Push/Pop boxed an entry
// per operation on the solver's innermost loop. The sift-up/sift-down
// logic mirrors container/heap exactly (including which child wins a
// tie), so the pop order of equal-distance entries — and therefore the
// solver's path choices on cost ties — is identical to the boxed heap.
func pushND(h []nodeDist, nd nodeDist) []nodeDist {
	h = append(h, nd)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func popND(h []nodeDist) (nodeDist, []nodeDist) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift the new root down over h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}
