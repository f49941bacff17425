package mcmf

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, from, to int, capacity int64, cost float64) EdgeID {
	t.Helper()
	id, err := g.AddEdge(from, to, capacity, cost)
	if err != nil {
		t.Fatalf("AddEdge(%d→%d): %v", from, to, err)
	}
	return id
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(2)
	tests := []struct {
		name     string
		from, to int
		capacity int64
		cost     float64
	}{
		{"from out of range", -1, 1, 1, 0},
		{"to out of range", 0, 2, 1, 0},
		{"negative capacity", 0, 1, -1, 0},
		{"NaN cost", 0, 1, 1, math.NaN()},
		{"Inf cost", 0, 1, 1, math.Inf(1)},
		{"negative cost", 0, 1, 1, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.from, tt.to, tt.capacity, tt.cost); err == nil {
				t.Error("AddEdge() succeeded, want error")
			}
		})
	}
}

func TestSolveErrors(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 1, 1)
	if _, err := g.Solve(-1, 1, 10); err == nil {
		t.Error("Solve(bad source) succeeded")
	}
	if _, err := g.Solve(0, 9, 10); err == nil {
		t.Error("Solve(bad sink) succeeded")
	}
	if _, err := g.Solve(0, 0, 10); err == nil {
		t.Error("Solve(source==sink) succeeded")
	}
	if _, err := g.Solve(0, 1, -1); err == nil {
		t.Error("Solve(negative limit) succeeded")
	}
}

func TestSimpleTwoPath(t *testing.T) {
	// source(0) → 1 → sink(3) capacity 2, total cost 1+1=2/unit
	// source(0) → 2 → sink(3) capacity 3, total cost 2+2=4/unit
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			g := NewGraph(4)
			e1a := mustEdge(t, g, 0, 1, 2, 1)
			e1b := mustEdge(t, g, 1, 3, 2, 1)
			mustEdge(t, g, 0, 2, 3, 2)
			mustEdge(t, g, 2, 3, 3, 2)
			res, err := sv.solve(g, 0, 3, math.MaxInt64)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Flow != 5 {
				t.Errorf("Flow = %d, want 5", res.Flow)
			}
			if want := 2.0*2 + 3.0*4; !almost(res.Cost, want) {
				t.Errorf("Cost = %v, want %v", res.Cost, want)
			}
			if g.Flow(e1a) != 2 || g.Flow(e1b) != 2 {
				t.Errorf("cheap path flows = %d, %d, want 2, 2", g.Flow(e1a), g.Flow(e1b))
			}
			if _, err := CheckFlow(g, 0, 3); err != nil {
				t.Errorf("CheckFlow: %v", err)
			}
		})
	}
}

func TestFlowLimitPrefersCheapPath(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 2, 1)
	mustEdge(t, g, 1, 3, 2, 1)
	expensive := mustEdge(t, g, 0, 2, 3, 10)
	mustEdge(t, g, 2, 3, 3, 10)
	res, err := g.Solve(0, 3, 2)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Flow != 2 {
		t.Errorf("Flow = %d, want 2 (limit)", res.Flow)
	}
	if !almost(res.Cost, 4) {
		t.Errorf("Cost = %v, want 4", res.Cost)
	}
	if g.Flow(expensive) != 0 {
		t.Errorf("expensive path used (%d units) despite cheap capacity", g.Flow(expensive))
	}
}

func TestRerouting(t *testing.T) {
	// Classic case where min-cost flow must push flow "back" along a
	// residual arc: a diamond with a tempting middle edge.
	//
	//   0 → 1 (cap 1, cost 1)    0 → 2 (cap 1, cost 4)
	//   1 → 2 (cap 1, cost 1)    1 → 3 (cap 1, cost 5)
	//   2 → 3 (cap 1, cost 1)
	//
	// Max flow is 2: unit 0→1→3 and unit 0→2→3. A greedy shortest path
	// first sends 0→1→2→3 (cost 3) and must then reroute through the
	// residual 2→1 arc.
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			g := NewGraph(4)
			mustEdge(t, g, 0, 1, 1, 1)
			mustEdge(t, g, 0, 2, 1, 4)
			mustEdge(t, g, 1, 2, 1, 1)
			mustEdge(t, g, 1, 3, 1, 5)
			mustEdge(t, g, 2, 3, 1, 1)
			res, err := sv.solve(g, 0, 3, math.MaxInt64)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Flow != 2 {
				t.Errorf("Flow = %d, want 2", res.Flow)
			}
			// Optimal: 0→1→3 (6) + 0→2→3 (5) = 11, or
			// 0→1→2→3 (3) + 0→2... both routes total 11.
			if !almost(res.Cost, 11) {
				t.Errorf("Cost = %v, want 11", res.Cost)
			}
			if _, err := CheckFlow(g, 0, 3); err != nil {
				t.Errorf("CheckFlow: %v", err)
			}
		})
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 3, 1)
	// Node 2..3 unreachable.
	mustEdge(t, g, 2, 3, 3, 1)
	res, err := g.Solve(0, 3, math.MaxInt64)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Errorf("got flow %d cost %v, want 0, 0", res.Flow, res.Cost)
	}
}

// TestSolveTwiceRepeats: Solve starts from zero flow, so solving one
// graph again returns the same Result and leaves the same per-edge flows.
func TestSolveTwiceRepeats(t *testing.T) {
	g := NewGraph(0)
	source, sink, supply := sweepNetwork(t, g, 7)
	for _, limit := range []int64{supply / 3, supply} {
		first, err := g.Solve(source, sink, limit)
		if err != nil {
			t.Fatal(err)
		}
		if first.Flow == 0 {
			t.Fatalf("limit %d: first solve moved no flow", limit)
		}
		flows := make([]int64, g.NumEdges())
		for id := range flows {
			flows[id] = g.Flow(EdgeID(id))
		}
		again, err := g.Solve(source, sink, limit)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("limit %d: second solve %+v, first %+v", limit, again, first)
		}
		for id, want := range flows {
			if got := g.Flow(EdgeID(id)); got != want {
				t.Fatalf("limit %d: edge %d flow %d after the second solve, %d after the first", limit, id, got, want)
			}
		}
	}
}

func TestEdgeInfo(t *testing.T) {
	g := NewGraph(2)
	e := mustEdge(t, g, 0, 1, 7, 2.5)
	if _, err := g.Solve(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	info, err := g.EdgeInfo(e)
	if err != nil {
		t.Fatalf("EdgeInfo: %v", err)
	}
	want := Edge{From: 0, To: 1, Capacity: 7, Cost: 2.5, Flow: 3}
	if info != want {
		t.Errorf("EdgeInfo() = %+v, want %+v", info, want)
	}
	if _, err := g.EdgeInfo(EdgeID(5)); err == nil {
		t.Error("EdgeInfo(bad id) succeeded")
	}
	if got := g.Flow(EdgeID(-1)); got != 0 {
		t.Errorf("Flow(bad id) = %d, want 0", got)
	}
}

// referenceMaxFlow is an independent Edmonds-Karp implementation used
// to validate max-flow values on random graphs.
func referenceMaxFlow(n int, edges [][3]int64, source, sink int) int64 {
	capacity := make([][]int64, n)
	for i := range capacity {
		capacity[i] = make([]int64, n)
	}
	for _, e := range edges {
		capacity[e[0]][e[1]] += e[2]
	}
	var total int64
	for {
		// BFS for an augmenting path.
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[source] = source
		queue := []int{source}
		for len(queue) > 0 && prev[sink] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if prev[v] == -1 && capacity[u][v] > 0 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		if prev[sink] == -1 {
			return total
		}
		push := int64(math.MaxInt64)
		for v := sink; v != source; v = prev[v] {
			if c := capacity[prev[v]][v]; c < push {
				push = c
			}
		}
		for v := sink; v != source; v = prev[v] {
			capacity[prev[v]][v] -= push
			capacity[v][prev[v]] += push
		}
		total += push
	}
}

func TestRandomGraphsAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		numEdges := 1 + rng.Intn(3*n)
		type edgeSpec struct {
			from, to int
			cap      int64
			cost     float64
		}
		specs := make([]edgeSpec, 0, numEdges)
		var flat [][3]int64
		for e := 0; e < numEdges; e++ {
			from := rng.Intn(n)
			to := rng.Intn(n)
			if from == to {
				continue
			}
			capV := int64(1 + rng.Intn(10))
			cost := float64(rng.Intn(20)) // non-negative integer costs
			specs = append(specs, edgeSpec{from, to, capV, cost})
			flat = append(flat, [3]int64{int64(from), int64(to), capV})
		}
		build := func() *Graph {
			g := NewGraph(n)
			for _, s := range specs {
				if _, err := g.AddEdge(s.from, s.to, s.cap, s.cost); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
			return g
		}
		source, sink := 0, n-1

		gd := build()
		resD, err := gd.Solve(source, sink, math.MaxInt64)
		if err != nil {
			t.Fatalf("trial %d dijkstra: %v", trial, err)
		}
		gb := build()
		resB, err := referenceBellmanFord(gb, source, sink, math.MaxInt64)
		if err != nil {
			t.Fatalf("trial %d bellman-ford: %v", trial, err)
		}

		if resD.Flow != resB.Flow {
			t.Fatalf("trial %d: flows differ: dijkstra %d, bellman-ford %d",
				trial, resD.Flow, resB.Flow)
		}
		if !almost(resD.Cost, resB.Cost) {
			t.Fatalf("trial %d: costs differ: dijkstra %v, bellman-ford %v",
				trial, resD.Cost, resB.Cost)
		}
		if want := referenceMaxFlow(n, flat, source, sink); resD.Flow != want {
			t.Fatalf("trial %d: flow %d, reference max flow %d", trial, resD.Flow, want)
		}
		if _, err := CheckFlow(gd, source, sink); err != nil {
			t.Fatalf("trial %d: dijkstra flow invalid: %v", trial, err)
		}
		if _, err := CheckFlow(gb, source, sink); err != nil {
			t.Fatalf("trial %d: bellman-ford flow invalid: %v", trial, err)
		}
		if netD, _ := CheckFlow(gd, source, sink); netD != resD.Flow {
			t.Fatalf("trial %d: net source flow %d != reported %d", trial, netD, resD.Flow)
		}
	}
}

// sweepNetwork rebuilds g as a seeded network of the shape
// core.buildNetwork hands the solver on every θ step: source → at most
// 40 overloaded nodes → guide nodes (zero-cost in-arcs, one priced
// out-arc) or direct distance-priced arcs → at most 80 under-utilised
// nodes → sink. Every cost is a multiple of 1/8 from a small range, so
// equal-cost paths are the rule and cost sums are exact in float64. It
// returns the total supply.
func sweepNetwork(t *testing.T, g *Graph, seed int64) (source, sink int, supply int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eighths := func() float64 { return float64(1+rng.Intn(24)) / 8 }
	nOver, nUnder := 5+rng.Intn(36), 10+rng.Intn(71)
	phiOver := make([]int64, nOver)
	clusterOf := make([]int, nOver)
	for i := range phiOver {
		phiOver[i] = int64(1 + rng.Intn(30))
		clusterOf[i] = rng.Intn(6)
		supply += phiOver[i]
	}
	g.Reinit(2)
	source, sink = 0, 1
	overNode := make([]int, nOver) // 0 (the source) = not added yet
	ensureOver := func(i int) int {
		if overNode[i] == 0 {
			overNode[i] = g.AddNode()
			mustEdge(t, g, source, overNode[i], phiOver[i], 0)
		}
		return overNode[i]
	}
	for j := 0; j < nUnder; j++ {
		phiJ := int64(1 + rng.Intn(20))
		// Candidates within θ, bucketed by the source's content cluster
		// in ascending cluster order, as the builder groups them.
		var groups [6][]int
		found := false
		for i := 0; i < nOver; i++ {
			if rng.Intn(8) == 0 {
				groups[clusterOf[i]] = append(groups[clusterOf[i]], i)
				found = true
			}
		}
		if !found {
			continue
		}
		nj := g.AddNode()
		mustEdge(t, g, nj, sink, phiJ, 0)
		for _, group := range groups {
			var sumPhi int64
			for _, i := range group {
				sumPhi += min(phiOver[i], phiJ)
			}
			if len(group) > 0 && 2*sumPhi >= phiJ {
				guide := g.AddNode()
				mustEdge(t, g, guide, nj, min(sumPhi, phiJ), eighths())
				for _, i := range group {
					mustEdge(t, g, ensureOver(i), guide, min(phiOver[i], phiJ), 0)
				}
				continue
			}
			for _, i := range group {
				mustEdge(t, g, ensureOver(i), nj, min(phiOver[i], phiJ), eighths())
			}
		}
	}
	return source, sink, supply
}

// TestSolveMatchesReferenceOnSweepNetworks holds Solve to the oracle on
// the networks the θ-sweep actually solves — layered, sparse, tie-heavy,
// first under a binding flow limit, then again at the full supply, as
// the residual pass's rebuilt network is — where
// TestRandomGraphsAlgorithmsAgree covers dense random digraphs with an
// unbounded limit.
func TestSolveMatchesReferenceOnSweepNetworks(t *testing.T) {
	steps := []struct {
		name   string
		third  bool // limit supply/3 instead of the full supply
		flows  hash.Hash64
		pinned uint64
	}{
		{"limited", true, fnv.New64a(), 0x9647be7580d60f3e},
		{"full", false, fnv.New64a(), 0x66f09ef3cdba2c15},
	}
	var moved int64
	for seed := int64(1); seed <= 40; seed++ {
		gs, gr := NewGraph(0), NewGraph(0)
		source, sink, supply := sweepNetwork(t, gs, seed)
		sweepNetwork(t, gr, seed)
		for _, st := range steps {
			limit := supply
			if st.third {
				limit = supply / 3
			}
			got, err := gs.Solve(source, sink, limit)
			if err != nil {
				t.Fatalf("seed %d %s: Solve: %v", seed, st.name, err)
			}
			want, err := referenceBellmanFord(gr, source, sink, limit)
			if err != nil {
				t.Fatalf("seed %d %s: oracle: %v", seed, st.name, err)
			}
			// Multiples of 1/8 times integer flows sum exactly.
			if got.Flow != want.Flow || got.Cost != want.Cost {
				t.Fatalf("seed %d %s: Solve = flow %d cost %v, oracle = flow %d cost %v",
					seed, st.name, got.Flow, got.Cost, want.Flow, want.Cost)
			}
			if got.Paths > int(got.Flow) {
				t.Fatalf("seed %d %s: %d paths for %d units", seed, st.name, got.Paths, got.Flow)
			}
			moved += got.Flow
			net, err := CheckFlow(gs, source, sink)
			if err != nil || net != got.Flow {
				t.Fatalf("seed %d %s: net flow %d, reported %d (%v)", seed, st.name, net, got.Flow, err)
			}
			if ref, err := CheckFlow(gr, source, sink); err != nil || ref != net {
				t.Fatalf("seed %d %s: net flow %d, oracle's %d (%v)", seed, st.name, net, ref, err)
			}
			for id := 0; id < gs.NumEdges(); id++ {
				binary.Write(st.flows, binary.LittleEndian, gs.Flow(EdgeID(id)))
			}
		}
	}
	if moved == 0 {
		t.Fatal("the family moved no flow")
	}
	// Which of the equal-cost optima Solve returns: core.extractFlows
	// attributes per-arc flow to hotspot pairs, so a different optimum is
	// a different plan. A solver change that moves these moves goldens.
	for _, st := range steps {
		if got := st.flows.Sum64(); got != st.pinned {
			t.Errorf("%s: per-arc flows fingerprint %#x, want %#x", st.name, got, st.pinned)
		}
	}
}

func TestAddNode(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 || g.NumNodes() != 2 {
		t.Fatalf("AddNode ids = %d, %d (n=%d), want 0, 1 (n=2)", a, b, g.NumNodes())
	}
	mustEdge(t, g, a, b, 1, 1)
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges() = %d, want 1", g.NumEdges())
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
