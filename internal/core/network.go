package core

import (
	"fmt"
	"slices"

	"repro/internal/mcmf"
	"repro/internal/par"
	"repro/internal/similarity"
)

// pairKey packs an (i, j) hotspot pair into a map key.
func pairKey(i, j, m int) int64 { return int64(i)*int64(m) + int64(j) }

func unpackPair(k int64, m int) (i, j int) {
	return int(k / int64(m)), int(k % int64(m))
}

// attributedEdge ties a flow-network edge back to the hotspot pair its
// flow should be attributed to. For a direct edge it is <i, j>; for a
// guide in-edge i→n_kj it is also <i, j> because everything entering
// n_kj exits to j.
type attributedEdge struct {
	id   mcmf.EdgeID
	i, j int
}

// flowNet is one connected component of a step's balancing network
// (Gd, or Gc when guide nodes were inserted), built with its own source
// and sink arcs into the arena graph.
type flowNet struct {
	g          *mcmf.Graph
	edges      []attributedEdge
	guideNodes int
}

// The source and sink of every built network.
const (
	netSource = 0
	netSink   = 1
)

// distCache holds one round's candidate rows: for each under-utilised
// target under[uj], the overloaded hotspots closer than a bound — θ2 for
// the sweep — as (over ordinal, distance) in ascending ordinal order.
// The round builds it once, evaluating every one of the |Hs|·|Ht|
// distances, and every θ iteration of the sweep and the residual Gd pass
// filters its rows instead of rescanning the pairs: θ never exceeds the
// bound, so no pair outside a row could be admitted. At 1,240 hotspots
// the round evaluates ≈ 314 k pairs and its steps admit ≈ 1 k of them.
type distCache struct {
	rows      [][]overDist
	evaluated int64 // distance evaluations: one per over × under pair
}

// overDist is one entry of a candidate row: over[oi] lies d from the
// row's target.
type overDist struct {
	oi int32
	d  float64
}

// newDistCache rebuilds the arena's candidate rows (keeping their
// storage) for the pairs of over × under closer than bound, fanning the
// targets out over workers goroutines (each row is written by exactly
// one worker, so the cache is identical for every worker count), and
// returns them.
func (s *Scheduler) newDistCache(over, under []int, bound float64, workers int) *distCache {
	dc := &s.ar.dists
	dc.evaluated = int64(len(over)) * int64(len(under))
	if cap(dc.rows) < len(under) {
		dc.rows = append(dc.rows[:cap(dc.rows)], make([][]overDist, len(under)-cap(dc.rows))...)
	}
	dc.rows = dc.rows[:len(under)]
	locs := s.locs
	par.Chunks(len(under), workers, func(lo, hi int) {
		for uj := lo; uj < hi; uj++ {
			pj := locs[under[uj]]
			row := dc.rows[uj][:0]
			for oi, i := range over {
				if d := locs[i].DistanceTo(pj); d < bound {
					row = append(row, overDist{oi: int32(oi), d: d})
				}
			}
			dc.rows[uj] = row
		}
	})
	return dc
}

// calcs is the number of distance evaluations the cache performed.
func (c *distCache) calcs() int64 { return c.evaluated }

// within appends to dst the admissible pairs of target under[uj], whose
// slack is phiJ: the row's sources with d < θ and surplus left, in
// ascending over order.
func (c *distCache) within(dst []cand, uj int, theta float64, over []int, phiOver []int64, phiJ int64) []cand {
	if phiJ <= 0 {
		return dst
	}
	for _, od := range c.rows[uj] {
		i := over[od.oi]
		if od.d < theta && phiOver[i] > 0 {
			dst = append(dst, cand{i: i, phiIJ: min(phiOver[i], phiJ), distIJ: od.d})
		}
	}
	return dst
}

// cand is one admissible <i, j> pair: overloaded source i, the pair
// capacity φ_ij = min(φ_i, φ_j), and d_ij.
type cand struct {
	i      int
	phiIJ  int64
	distIJ float64
}

// stepNet is one θ step's balancing network before it is built: each
// target's admissible pairs, and the targets grouped into the network's
// connected components once source and sink are set aside. A guide
// node's in-arcs come from one target's pairs only, so the pairs alone
// decide the components, with or without guides.
type stepNet struct {
	under []int
	cands []cand  // target under[uj]'s pairs are cands[at[uj]:at[uj+1]]
	at    []int32 // len(under)+1 offsets into cands
	// comps holds the targets (ordinals into under) that have pairs,
	// component by component in ascending order of each component's
	// smallest target, and ascending within one: component c is
	// comps[compAt[c]:compAt[c+1]].
	comps       []int32
	compAt      []int32
	directPairs int // number of candidate <i,j> pairs with d_ij < θ
}

// components is the number of connected components.
func (st *stepNet) components() int { return len(st.compAt) - 1 }

// pairs returns target under[uj]'s admissible pairs.
func (st *stepNet) pairs(uj int32) []cand { return st.cands[st.at[uj]:st.at[uj+1]] }

// newStep gathers the admissible pairs of the step at θ over the
// hotspots with remaining surplus (over, phiOver) and remaining slack
// (under, phiUnder) from dc's rows, and groups the targets into the
// network's components by union-find over those pairs. The result lives
// in the arena until the next call.
func (s *Scheduler) newStep(theta float64, over, under []int, phiOver, phiUnder []int64, dc *distCache) *stepNet {
	ar := s.ar
	st := &ar.step
	st.under = under
	st.cands = st.cands[:0]
	st.at = append(st.at[:0], 0)
	uf, label := ar.uf, ar.label
	for _, h := range over {
		uf[h], label[h] = int32(h), -1
	}
	for _, h := range under {
		uf[h], label[h] = int32(h), -1
	}
	for uj, j := range under {
		st.cands = dc.within(st.cands, uj, theta, over, phiOver, phiUnder[j])
		for _, c := range st.cands[st.at[uj]:] {
			union(uf, j, c.i)
		}
		st.at = append(st.at, int32(len(st.cands)))
	}
	st.directPairs = len(st.cands)

	// Number the components in ascending order of their smallest target
	// and count their targets, then place the targets by a counting pass
	// (stable, so each component's targets stay ascending).
	st.compAt = st.compAt[:0]
	for uj, j := range under {
		if st.at[uj] == st.at[uj+1] {
			continue
		}
		r := find(uf, j)
		if label[r] < 0 {
			label[r] = int32(len(st.compAt))
			st.compAt = append(st.compAt, 0)
		}
		st.compAt[label[r]]++
	}
	n := len(st.compAt)
	st.compAt = append(st.compAt, 0)
	var targets int32
	for c, k := range st.compAt {
		st.compAt[c] = targets
		targets += k
	}
	st.comps = slices.Grow(st.comps[:0], int(targets))[:targets]
	for uj, j := range under {
		if st.at[uj] == st.at[uj+1] {
			continue
		}
		c := label[find(uf, j)]
		st.comps[st.compAt[c]] = int32(uj)
		st.compAt[c]++
	}
	// compAt[c] now ends component c, which is where c+1 starts.
	copy(st.compAt[1:], st.compAt[:n])
	st.compAt[0] = 0
	return st
}

// find returns h's root in the union-find forest uf, halving the path
// on the way.
func find(uf []int32, h int) int {
	for int(uf[h]) != h {
		uf[h] = uf[uf[h]]
		h = int(uf[h])
	}
	return h
}

// union joins the trees of a and b under the smaller root.
func union(uf []int32, a, b int) {
	ra, rb := find(uf, a), find(uf, b)
	if ra > rb {
		ra, rb = rb, ra
	}
	uf[rb] = int32(ra)
}

// buildNetwork builds component c of st into the arena graph: its
// targets, each with its sink arc, its candidate pairs and — when
// useGuides is true — the flow-guide nodes
// of the content-aggregation rewrite of Sec. IV-B (turning Gd into
// Gc), plus the source arcs of the overloaded hotspots those pairs
// name.
//
// Construction is deterministic: targets are visited in ascending
// hotspot order (under is sorted by construction) and clusters in
// ascending cluster id, so identical inputs yield an identical graph —
// and therefore an identical min-cost flow — on every run.
func (s *Scheduler) buildNetwork(st *stepNet, c int, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) *flowNet {
	ar := s.ar
	ar.epoch++
	ar.g.Reinit(2)
	nb := &ar.net
	*nb = flowNet{g: ar.g, edges: nb.edges[:0]}
	for _, uj := range st.comps[st.compAt[c]:st.compAt[c+1]] {
		s.addTarget(nb, st.under[uj], st.pairs(uj), phiOver, phiUnder, clusterOf, useGuides)
	}
	return nb
}

// addTarget adds target j, whose admissible pairs are cands, to the
// network nb: j's node and sink arc, a guide node per cluster that
// earns one, the pair arcs, and the source arc of each overloaded
// hotspot the first time the network names it. Nodes and arcs are
// tracked in the arena's tables under the current epoch.
func (s *Scheduler) addTarget(nb *flowNet, j int, cands []cand, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) {
	ar, g := s.ar, nb.g
	nj := ar.node(g, j)
	if ar.snkEp[j] != ar.epoch {
		mustEdge(g, nj, netSink, phiUnder[j], 0)
		ar.snkEp[j] = ar.epoch
	}

	// Partition candidates by the source hotspot's content cluster,
	// visiting clusters in ascending id so edge insertion — and hence
	// the solver's path choices on cost ties — is deterministic. A
	// stable sort by cluster id over arena scratch yields exactly the
	// order the previous map-of-groups build visited (ascending
	// cluster, original candidate order within a cluster) without
	// allocating per-target maps.
	groups := cands
	if useGuides {
		ar.groups = append(ar.groups[:0], cands...)
		slices.SortStableFunc(ar.groups, func(a, b cand) int {
			return clusterOf[a.i] - clusterOf[b.i]
		})
		groups = ar.groups
	}

	for gLo := 0; gLo < len(groups); {
		gHi := gLo + 1
		k := -1
		if useGuides {
			k = clusterOf[groups[gLo].i]
			for gHi < len(groups) && clusterOf[groups[gHi].i] == k {
				gHi++
			}
		} else {
			gHi = len(groups)
		}
		group := groups[gLo:gHi]
		gLo = gHi
		var sumPhi int64
		var sumDist float64
		for _, c := range group {
			sumPhi += c.phiIJ
			sumDist += c.distIJ
		}
		// Insert a guide node when the cluster can cover at least half
		// of j's slack, or when j itself belongs to the cluster (Sec.
		// IV-B). Its members reach it at cost 0 and it reaches j at the
		// group's cost; without a guide each member reaches j directly
		// at d_ij.
		to, guided := nj, useGuides && (2*sumPhi >= phiUnder[j] || clusterOf[j] == k)
		if guided {
			to = g.AddNode()
			nb.guideNodes++
			var outCost float64
			switch s.params.GuideCost {
			case GuideCostAvgCapacity:
				outCost = float64(sumPhi) / float64(len(group))
			default: // GuideCostAvgDistance
				outCost = sumDist / float64(len(group))
			}
			mustEdge(g, to, nj, min(sumPhi, phiUnder[j]), outCost)
		}
		for _, c := range group {
			ni := ar.node(g, c.i)
			if ar.srcEp[c.i] != ar.epoch {
				mustEdge(g, netSource, ni, phiOver[c.i], 0)
				ar.srcEp[c.i] = ar.epoch
			}
			cost := c.distIJ
			if guided {
				cost = 0
			}
			id := mustEdge(g, ni, to, c.phiIJ, cost)
			nb.edges = append(nb.edges, attributedEdge{id: id, i: c.i, j: j})
		}
	}
}

// mustEdge adds an arc whose arguments are valid by construction; an
// error here is a programming bug.
func mustEdge(g *mcmf.Graph, from, to int, capacity int64, cost float64) mcmf.EdgeID {
	id, err := g.AddEdge(from, to, capacity, cost)
	if err != nil {
		panic(fmt.Sprintf("core: building flow network: %v", err))
	}
	return id
}

// contentClusters computes each hotspot's content signature (its
// top-TopFraction demanded videos) and clusters hotspots by the
// content-aware distance Jd = 1 - Jaccard, cutting the dendrogram at
// ClusterCut. It returns the cluster index per hotspot and the number
// of clusters.
func (s *Scheduler) contentClusters(d *Demand) ([]int, int, error) {
	m := len(s.world.Hotspots)
	t := s.demandTable(d)
	ar := s.ar
	// Hotspot h's signature is the first TopCount videos of its rank
	// row, one run of the span the kernel reads.
	ar.sigIDs, ar.sigAt = ar.sigIDs[:0], append(ar.sigAt[:0], 0)
	for h := 0; h < m; h++ {
		row := t.rankRow(h)
		for _, e := range row[:similarity.TopCount(len(row), s.params.TopFraction)] {
			ar.sigIDs = append(ar.sigIDs, int32(e.video))
		}
		ar.sigAt = append(ar.sigAt, int32(len(ar.sigIDs)))
	}
	// The matrix costs one increment per pair of hotspots sharing a
	// signature video; the (inherently sequential) nearest-neighbour
	// chain that takes it is the larger half of the phase. Both work in
	// the arena's one m×m span of Jd ranks: the fill rewrites every cell
	// and the chain consumes them, so no round sees another's distances.
	ar.span.Fill(ar.sigIDs, ar.sigAt, par.Workers(s.params.Workers))
	dendro, err := ar.clusterSpan(m)
	if err != nil {
		return nil, 0, fmt.Errorf("core: clustering hotspots: %w", err)
	}
	groups := dendro.Cut(s.params.ClusterCut)
	clusterOf := make([]int, m)
	for k, grp := range groups {
		for _, h := range grp {
			clusterOf[h] = k
		}
	}
	return clusterOf, len(groups), nil
}

// ThetaAnalysis reports, for a given θ, the size and effectiveness of
// the balancing graph Gd — the quantities of the paper's Fig. 9.
type ThetaAnalysis struct {
	Theta float64
	// DirectEdges is the number of <i,j> pairs with d_ij < θ.
	DirectEdges int
	// EdgeFraction is DirectEdges normalised by |V|^2 with
	// |V| = |Hs| + |Ht| (the possible-edge count).
	EdgeFraction float64
	// Flow is the max flow achievable on Gd(θ).
	Flow int64
	// FlowFraction is Flow normalised by the unrestricted movable
	// workload min(Σφ_i, Σφ_j).
	FlowFraction float64
}

// AnalyzeTheta computes the Fig. 9 quantities for one θ against the
// demand: how many candidate edges the θ bound keeps and what fraction
// of the movable workload those edges can carry.
func (s *Scheduler) AnalyzeTheta(d *Demand, theta float64) (ThetaAnalysis, error) {
	if d.NumHotspots() != len(s.world.Hotspots) {
		return ThetaAnalysis{}, fmt.Errorf("core: demand covers %d hotspots, world has %d",
			d.NumHotspots(), len(s.world.Hotspots))
	}
	if theta < 0 {
		return ThetaAnalysis{}, fmt.Errorf("core: negative theta %v", theta)
	}
	over, under, phiOver, phiUnder := s.partition(d, s.world.ServiceCapacities())
	stats := partitionStats(over, under, phiOver, phiUnder)
	dc := s.newDistCache(over, under, max(theta, s.params.Theta2), par.Workers(s.params.Workers))
	st := s.newStep(theta, over, under, phiOver, phiUnder, dc)
	step := s.solveStep(st, nil, false, make(map[int64]int64), phiOver, phiUnder, &stats)
	if step.recovered > 0 {
		return ThetaAnalysis{}, fmt.Errorf("core: solving Gd(θ=%v): %d of %d components failed", theta, step.recovered, step.components)
	}

	v := len(over) + len(under)
	out := ThetaAnalysis{
		Theta:       theta,
		DirectEdges: st.directPairs,
		Flow:        step.moved,
	}
	if v > 0 {
		out.EdgeFraction = float64(st.directPairs) / float64(v*v)
	}
	if stats.MaxFlow > 0 {
		out.FlowFraction = float64(step.moved) / float64(stats.MaxFlow)
	}
	return out, nil
}

// partition splits hotspots into overloaded and under-utilised sets
// with their surplus/slack φ values against the given capacities.
func (s *Scheduler) partition(d *Demand, svc []int64) (over, under []int, phiOver, phiUnder []int64) {
	m := len(s.world.Hotspots)
	phiOver = make([]int64, m)
	phiUnder = make([]int64, m)
	for h := 0; h < m; h++ {
		lambda := d.Totals[h]
		switch {
		case lambda > svc[h]:
			over = append(over, h)
			phiOver[h] = lambda - svc[h]
		case lambda < svc[h]:
			under = append(under, h)
			phiUnder[h] = svc[h] - lambda
		}
	}
	return over, under, phiOver, phiUnder
}
