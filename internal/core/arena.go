package core

import (
	"repro/internal/cluster"
	"repro/internal/mcmf"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// roundArena is the per-Scheduler reusable storage behind the
// scheduling hot path. One round builds roughly ten transient
// structures per θ iteration — the step's candidate pairs and
// components, the flow graph of each component, hotspot→node and
// source/sink-arc tables, the cluster-grouping scratch, the
// attributed-edge list — plus the θ2 candidate rows and a fresh flows
// accumulator per round. The arena
// persists all of them across θ iterations and across rounds, so
// steady-state network construction appends into retained storage
// instead of reallocating.
//
// Membership tables (nodeOf, source/sink arcs) are epoch-stamped int
// slices instead of maps: every buildNetwork call bumps epoch, and an
// entry is live only when its stamp matches — an O(1) "clear" with no
// map traffic and no per-round zeroing of the m-sized tables.
//
// The arena inherits the Scheduler's concurrency contract (sequential
// use only); the worker fan-out inside a round writes disjoint rows of
// the distance cache, never the shared tables.
type roundArena struct {
	g     *mcmf.Graph
	epoch int64

	// Hotspot-indexed, epoch-stamped tables (sized m at construction).
	nodeOf []int32 // hotspot -> graph node, valid when nodeEp matches
	nodeEp []int64
	srcEp  []int64 // source arc added this epoch
	snkEp  []int64 // sink arc added this epoch
	uf     []int32 // newStep's union-find forest over the step's hotspots
	label  []int32 // newStep's component number per union-find root

	dists  distCache // the round's θ2 candidate rows, row caps retained
	step   stepNet   // the current θ step's pairs and components
	groups []cand    // cluster-stable-sort scratch
	net    flowNet   // reused result shell; edges cap retained

	flows map[int64]int64 // per-round flow accumulator, cleared per round

	// Procedure 1's flat tables (replicate.go), rebuilt by the round into
	// storage that stays at the largest round's size — 4·16 B a demand
	// entry in the table (two views and two pass buffers), 16 B one in
	// lam for the flow sources, 24 B a flow pair, 24 + 2·4 B a candidate
	// and its sort index, 8 B a contribution, 32 B a redirect: about
	// 4 MB at 1,240 hotspots, 1.9 MB at 310. Ordinals are int32
	// throughout.
	table     demandTable
	pairs     []flowPair
	lam       []demandEntry // flow sources' λ_rem rows, video-ascending
	lamOf     []lamSpan     // hotspot -> its row in lam; lo == hi when it has none
	cands     []euCand
	order     []int32 // cands' indices in cmpEuCand order
	orderBuf  []int32 // sortByEu's other half
	contribs  []contribution
	cursors   []int32 // per-source merge cursors of one target
	stale     staleHeap
	redirects []Redirect
	placed    []placedVideo // stage A's replicas, sorted (hotspot, video)
	placedIdx []int32       // hotspot h's replicas are placed[placedIdx[h]:placedIdx[h+1]]
	fill      []trace.VideoID

	// span is contentClusters' m×m Jd matrix held as ranks: uint16
	// cells, 2·m² bytes kept for the Scheduler's lifetime (3.1 MB at
	// 1,240 hotspots, 0.19 MB at 310) in exchange for no round
	// allocating, zeroing and copying it, and uint32 ones (4·m² bytes, the
	// uint16 ones released) from the first round whose matrix takes more
	// than 65,536 distinct distances. Allocated by the first round that
	// clusters; a scheduler that never does (guides disabled, no movable
	// flow) never pays for it.
	span similarity.RankSpan
	// The signatures it is filled from, as runs of video ids: hotspot h's
	// are sigIDs[sigAt[h]:sigAt[h+1]].
	sigIDs []int32
	sigAt  []int32
}

func newRoundArena(m int) *roundArena {
	return &roundArena{
		g:      mcmf.NewGraph(0),
		nodeOf: make([]int32, m),
		nodeEp: make([]int64, m),
		srcEp:  make([]int64, m),
		snkEp:  make([]int64, m),
		uf:     make([]int32, m),
		label:  make([]int32, m),
		flows:  make(map[int64]int64),

		lamOf:     make([]lamSpan, m),
		placedIdx: make([]int32, m+1),
	}
}

// node returns hotspot h's node in g, adding it the first time this
// epoch names h.
func (ar *roundArena) node(g *mcmf.Graph, h int) int {
	if ar.nodeEp[h] == ar.epoch {
		return int(ar.nodeOf[h])
	}
	n := g.AddNode()
	ar.nodeOf[h] = int32(n)
	ar.nodeEp[h] = ar.epoch
	return n
}

// emptyFlows returns the round flow accumulator, cleared for reuse.
func (ar *roundArena) emptyFlows() map[int64]int64 {
	clear(ar.flows)
	return ar.flows
}

// clusterSpan runs the chain on the round's rank span, whichever width
// its fill took, consuming the cells.
func (ar *roundArena) clusterSpan(m int) (*cluster.Dendrogram, error) {
	if ar.span.Wide != nil {
		return cluster.AgglomerativeInPlace(m, ar.span.Wide, ar.span.Levels)
	}
	return cluster.AgglomerativeInPlace(m, ar.span.Narrow, ar.span.Levels)
}
