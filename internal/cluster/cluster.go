// Package cluster implements agglomerative hierarchical clustering
// (Johnson 1967, the paper's reference [18]) under complete linkage,
// using the nearest-neighbour-chain algorithm for O(n^2) time.
//
// RBCAer clusters content hotspots by the content-aware distance
// Jd(i,j) = 1 - Jaccard(top-20% sets) and cuts the dendrogram at
// core.Params.ClusterCut so that hotspots in one cluster request
// similar content (paper Sec. IV-B). The paper cuts at 0.5; this
// repository's default is 0.75 (core.DefaultParams, recalibrated to its
// synthetic trace), so nothing here may assume 0.5.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Linkage selects how inter-cluster distance is derived when clusters
// merge. Complete is the only one: RBCAer needs its cut property.
type Linkage int

// Complete linkage: the distance between two clusters is their maximum
// pairwise distance. With a threshold cut at h, every intra-cluster
// pair is guaranteed closer than h — the property the paper requires
// ("restrict Jd between any two hotspots in the same cluster lower than
// 0.5").
const Complete Linkage = 1

// String implements fmt.Stringer.
func (l Linkage) String() string {
	if l == Complete {
		return "complete"
	}
	return fmt.Sprintf("linkage(%d)", int(l))
}

// Merge records one dendrogram join. Cluster identifiers are 0..n-1 for
// leaves and n+k for the cluster created by the k-th merge.
type Merge struct {
	A, B   int     // clusters joined (A < B)
	Height float64 // linkage distance at which they joined
	Size   int     // total leaves in the merged cluster
}

// Dendrogram is the result of hierarchical clustering over n items.
type Dendrogram struct {
	n int
	// merges is the merge sequence, ordered by ascending height.
	merges []Merge
}

// Rank is the integer type of a span the chain runs on: uint16 and
// uint32 ranks into a table of distinct distances, ascending (uint16
// covers 65,536 of them, uint32 is the fallback past that), or uint64,
// the bits of non-negative floats, which order as the floats do.
type Rank interface{ ~uint16 | ~uint32 | ~uint64 }

// AgglomerativeMatrix clusters the n items whose pairwise distances
// were precomputed into the n×n matrix dist — typically filled in
// parallel (similarity.DistanceMatrix) so the O(n²) distance
// evaluations come off the clustering hot path. The matrix must be
// symmetric with finite, non-negative entries; only the upper triangle
// is read and dist is left unmodified: the chain runs over a private
// n×n span of the distances' float bits, which for non-negative floats
// order as the floats themselves, so complete linkage cannot tell them
// apart. A caller that holds its distances as ranks saves the copy with
// AgglomerativeInPlace.
func AgglomerativeMatrix(dist [][]float64, link Linkage) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty distance matrix")
	}
	if err := checkLinkage(link); err != nil {
		return nil, err
	}
	cells := make([]uint64, n*n)
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("cluster: distance matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j := i + 1; j < n; j++ {
			v := row[j]
			if !validDistance(v) {
				return nil, distanceError(v, i, j)
			}
			if v == 0 {
				v = 0 // -0 becomes +0, whose bits are the smallest
			}
			cells[i*n+j], cells[j*n+i] = math.Float64bits(v), math.Float64bits(v)
		}
	}
	if n == 1 {
		return &Dendrogram{n: 1}, nil
	}
	return agglomerate(n, cells, math.Float64frombits), nil
}

// AgglomerativeInPlace clusters the n items whose pairwise distances
// fill the row-major span ranks as ranks into levels: ranks[i*n+j] = r
// means items i and j are levels[r] apart, len(ranks) = n·n. levels
// must be finite, non-negative and strictly ascending, so rank order is
// distance order and equal distances share a rank; the merge heights
// are levels' values. The door consumes ranks: the chain keeps its
// inter-cluster distances there, so the contents afterwards are
// unspecified and a caller that wants the span again refills all of it.
// The span must be symmetric — both triangles are read. n, the length,
// levels and every upper-triangle rank (< len(levels)) are checked
// before the first write, so a rejected input is handed back untouched.
// The result is identical to AgglomerativeMatrix over the distances the
// ranks stand for.
func AgglomerativeInPlace[R Rank](n int, ranks []R, levels []float64) (*Dendrogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive item count %d", n)
	}
	if len(ranks) != n*n {
		return nil, fmt.Errorf("cluster: %d cells for a %d×%d distance matrix", len(ranks), n, n)
	}
	for r, v := range levels {
		if !validDistance(v) || r > 0 && !(levels[r-1] < v) {
			return nil, fmt.Errorf("cluster: level %d is %v; levels must be finite, non-negative and strictly ascending", r, v)
		}
	}
	for i := 0; i < n; i++ {
		for j, r := range ranks[i*n+i+1 : (i+1)*n] {
			if uint64(r) >= uint64(len(levels)) {
				return nil, fmt.Errorf("cluster: rank %d between %d and %d outside %d levels", r, i, i+1+j, len(levels))
			}
		}
	}
	if n == 1 {
		return &Dendrogram{n: 1}, nil
	}
	return agglomerate(n, ranks, func(r R) float64 { return levels[r] }), nil
}

func checkLinkage(link Linkage) error {
	if link != Complete {
		return fmt.Errorf("cluster: unknown linkage %v", link)
	}
	return nil
}

// validDistance reports whether v is finite and non-negative (NaN fails
// both comparisons).
func validDistance(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

func distanceError(v float64, i, j int) error {
	return fmt.Errorf("cluster: invalid distance %v between %d and %d", v, i, j)
}

// agglomerate runs the nearest-neighbour-chain algorithm under complete
// linkage over the symmetric, validated, row-major n×n rank span d,
// which it consumes: a merge writes the merged cluster's ranks into the
// surviving slot's row and column. Complete linkage only compares
// distances and takes their max, so ranks give the same chain as the
// distances they stand for; a merge's height is height(its rank).
func agglomerate[R Rank](n int, d []R, height func(R) float64) *Dendrogram {
	// The slots still holding a cluster, ascending. Every scan below
	// walks this list instead of all n slots, so scans shrink as clusters
	// merge while visiting the survivors in the same order — which is
	// what the tie-breaks are defined on.
	active := make([]int32, n)
	size := make([]int, n)
	clusterID := make([]int, n) // slot -> current dendrogram cluster id
	for i := 0; i < n; i++ {
		active[i] = int32(i)
		size[i] = 1
		clusterID[i] = i
	}

	merges := make([]Merge, 0, n-1)
	nextID := n
	chain := make([]int, 0, n)

	for len(active) > 1 {
		if len(chain) == 0 {
			chain = append(chain, int(active[0]))
		}
		top := chain[len(chain)-1]
		// Nearest active neighbour of top (smallest slot on ties, but
		// prefer the chain predecessor so reciprocal pairs terminate).
		prev := -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		nn := -1
		best := uint64(math.MaxUint64) // above every rank, as +Inf is above every distance
		row := d[top*n : (top+1)*n]
		for _, s32 := range active {
			s := int(s32)
			if s == top {
				continue
			}
			v := uint64(row[s])
			if v < best || (v == best && s == prev) {
				best = v
				nn = s
			}
		}
		if nn != prev || prev < 0 {
			chain = append(chain, nn)
			continue
		}
		// Reciprocal nearest neighbours: merge top into prev's slot; the
		// merged cluster's distance to every other is the larger of the
		// two (the complete-linkage Lance-Williams update).
		chain = chain[:len(chain)-2]
		a, b := prev, top
		ra, rb := d[a*n:(a+1)*n], d[b*n:(b+1)*n]
		for _, s32 := range active {
			if s := int(s32); s != a && s != b {
				nv := max(ra[s], rb[s])
				ra[s] = nv
				d[s*n+a] = nv
			}
		}
		idA, idB := clusterID[a], clusterID[b]
		if idA > idB {
			idA, idB = idB, idA
		}
		merges = append(merges, Merge{
			A:      idA,
			B:      idB,
			Height: height(R(best)),
			Size:   size[a] + size[b],
		})
		size[a] += size[b]
		at, _ := slices.BinarySearch(active, int32(b))
		active = slices.Delete(active, at, at+1)
		clusterID[a] = nextID
		nextID++
	}

	// NN-chain emits merges in chain order, not height order. Re-sort
	// by height so threshold cuts are well-defined, then renumber
	// internal cluster ids to match the new order. Complete linkage is
	// monotone: a child merge never has greater height than its
	// parent, so a stable sort keeps children before parents.
	order := make([]int, len(merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return merges[order[i]].Height < merges[order[j]].Height
	})
	remap := make([]int, n+len(merges)) // cluster id in chain order -> in height order
	for i := 0; i < n; i++ {
		remap[i] = i
	}
	for newIdx, origIdx := range order {
		remap[n+origIdx] = n + newIdx
	}
	sorted := make([]Merge, len(merges))
	for newIdx, origIdx := range order {
		m := merges[origIdx]
		a, b := remap[m.A], remap[m.B]
		if a > b {
			a, b = b, a
		}
		sorted[newIdx] = Merge{A: a, B: b, Height: m.Height, Size: m.Size}
	}
	return &Dendrogram{n: n, merges: sorted}
}

// Cut returns the clusters obtained by applying every merge with
// height <= threshold, as slices of leaf indexes. Each leaf appears in
// exactly one cluster; clusters are ordered by their smallest leaf and
// leaves within a cluster are ascending. A merge's height is the level
// of its rank, so on a rank span this applies exactly the merges at or
// below the largest rank whose level is <= threshold.
func (d *Dendrogram) Cut(threshold float64) [][]int {
	// Cluster ids are dense (leaves 0..n-1, merge i creates n+i) and
	// each is joined into at most one later cluster, so "which applied
	// merge consumed this id" is a forest in one flat table.
	parent := make([]int32, d.n+len(d.merges))
	for id := range parent {
		parent[id] = -1
	}
	applied := 0
	for i, m := range d.merges {
		if m.Height > threshold {
			break
		}
		parent[m.A], parent[m.B] = int32(d.n+i), int32(d.n+i)
		applied++
	}
	// Leaves in ascending order open their cluster's group on first
	// sight, which is the documented order with nothing left to sort.
	groupOf := make([]int32, len(parent)) // root id -> its index into out plus one; 0 = not opened yet
	out := make([][]int, 0, d.n-applied)
	for leaf := 0; leaf < d.n; leaf++ {
		root := int32(leaf)
		for parent[root] >= 0 {
			root = parent[root]
		}
		for id := int32(leaf); parent[id] >= 0; {
			id, parent[id] = parent[id], root // the next leaf of this cluster gets there in one hop
		}
		if groupOf[root] == 0 {
			size := 1
			if int(root) >= d.n {
				size = d.merges[int(root)-d.n].Size
			}
			out = append(out, make([]int, 0, size))
			groupOf[root] = int32(len(out))
		}
		g := groupOf[root] - 1
		out[g] = append(out[g], leaf)
	}
	return out
}
