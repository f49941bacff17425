// Package cluster implements agglomerative hierarchical clustering
// (Johnson 1967, the paper's reference [18]) with single, complete, and
// average linkage, using the nearest-neighbour-chain algorithm for
// O(n^2) time on reducible linkages.
//
// RBCAer clusters content hotspots by the content-aware distance
// Jd(i,j) = 1 - Jaccard(top-20% sets) and cuts the dendrogram at 0.5 so
// that hotspots in one cluster request similar content (paper
// Sec. IV-B).
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Linkage selects how inter-cluster distance is derived when clusters
// merge.
type Linkage int

const (
	// Single linkage: distance between clusters is the minimum pairwise
	// distance.
	Single Linkage = iota + 1
	// Complete linkage: maximum pairwise distance. With a threshold cut
	// at h, every intra-cluster pair is guaranteed closer than h — the
	// property the paper requires ("restrict Jd between any two
	// hotspots in the same cluster lower than 0.5").
	Complete
	// Average linkage (UPGMA): size-weighted mean pairwise distance.
	Average
)

// String implements fmt.Stringer.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	default:
		return fmt.Sprintf("linkage(%d)", int(l))
	}
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

// DistFunc returns the dissimilarity between items i and j. It must be
// symmetric and non-negative; it is called once per unordered pair.
type DistFunc func(i, j int) float64

// Agglomerative clusters n items under the given linkage using the
// nearest-neighbour-chain algorithm. n must be positive; distances must
// be finite and non-negative.
func Agglomerative(n int, dist DistFunc, link Linkage) (*Dendrogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive item count %d", n)
	}
	switch link {
	case Single, Complete, Average:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %v", link)
	}
	if n == 1 {
		return &Dendrogram{n: 1}, nil
	}

	// Condensed distance matrix between active clusters, indexed by
	// slot (0..n-1 initially; merged clusters reuse a slot).
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("cluster: invalid distance %v between %d and %d", v, i, j)
			}
			d[i][j] = v
			d[j][i] = v
		}
	}
	return agglomerate(n, d, link)
}

// AgglomerativeMatrix clusters the n items whose pairwise distances
// were precomputed into the n×n matrix dist — typically filled in
// parallel (similarity.DistanceMatrix) so the O(n²) distance
// evaluations come off the clustering hot path. The matrix must be
// symmetric with finite, non-negative entries; only the upper triangle
// is read and dist is left unmodified. The result is identical to
// Agglomerative over the same distances.
func AgglomerativeMatrix(dist [][]float64, link Linkage) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty distance matrix")
	}
	switch link {
	case Single, Complete, Average:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %v", link)
	}
	if n == 1 {
		return &Dendrogram{n: 1}, nil
	}
	// One backing array, filled and validated in a single pass: row i
	// takes its upper triangle from dist[i] and hands each value to the
	// lower triangle of the rows below it.
	d := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range d {
		d[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("cluster: distance matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j := i + 1; j < n; j++ {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("cluster: invalid distance %v between %d and %d", v, i, j)
			}
			d[i][j] = v
			d[j][i] = v
		}
	}
	return agglomerate(n, d, link)
}

// agglomerate runs the nearest-neighbour-chain algorithm over a
// symmetric distance matrix it may freely mutate.
func agglomerate(n int, d [][]float64, link Linkage) (*Dendrogram, error) {
	active := make([]bool, n)
	size := make([]int, n)
	clusterID := make([]int, n) // slot -> current dendrogram cluster id
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		clusterID[i] = i
	}

	merges := make([]Merge, 0, n-1)
	nextID := n
	chain := make([]int, 0, n)
	remaining := n

	for remaining > 1 {
		if len(chain) == 0 {
			for s := 0; s < n; s++ {
				if active[s] {
					chain = append(chain, s)
					break
				}
			}
		}
		top := chain[len(chain)-1]
		// Nearest active neighbour of top (smallest slot on ties, but
		// prefer the chain predecessor so reciprocal pairs terminate).
		var prev = -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		nn := -1
		best := math.Inf(1)
		for s := 0; s < n; s++ {
			if !active[s] || s == top {
				continue
			}
			v := d[top][s]
			if v < best || (v == best && s == prev) {
				best = v
				nn = s
			}
		}
		if nn == prev && prev >= 0 {
			// Reciprocal nearest neighbours: merge top and prev.
			chain = chain[:len(chain)-2]
			a, b := prev, top
			mergeHeight := best
			// Lance-Williams update into slot a.
			for s := 0; s < n; s++ {
				if !active[s] || s == a || s == b {
					continue
				}
				var nv float64
				switch link {
				case Single:
					nv = math.Min(d[a][s], d[b][s])
				case Complete:
					nv = math.Max(d[a][s], d[b][s])
				case Average:
					na, nb := float64(size[a]), float64(size[b])
					nv = (na*d[a][s] + nb*d[b][s]) / (na + nb)
				}
				d[a][s] = nv
				d[s][a] = nv
			}
			idA, idB := clusterID[a], clusterID[b]
			if idA > idB {
				idA, idB = idB, idA
			}
			merges = append(merges, Merge{
				A:      idA,
				B:      idB,
				Height: mergeHeight,
				Size:   size[a] + size[b],
			})
			size[a] += size[b]
			active[b] = false
			clusterID[a] = nextID
			nextID++
			remaining--
		} else {
			chain = append(chain, nn)
		}
	}

	// NN-chain emits merges in chain order, not height order. Re-sort
	// by height so threshold cuts are well-defined, then renumber
	// internal cluster ids to match the new order. For the monotone
	// linkages supported here a child merge never has greater height
	// than its parent, so a stable sort keeps children before parents.
	order := make([]int, len(merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return merges[order[i]].Height < merges[order[j]].Height
	})
	remap := make(map[int]int, len(merges))
	sorted := make([]Merge, len(merges))
	for newIdx, origIdx := range order {
		remap[n+origIdx] = n + newIdx
	}
	mapID := func(id int) int {
		if id < n {
			return id
		}
		return remap[id]
	}
	for newIdx, origIdx := range order {
		m := merges[origIdx]
		a, b := mapID(m.A), mapID(m.B)
		if a > b {
			a, b = b, a
		}
		sorted[newIdx] = Merge{A: a, B: b, Height: m.Height, Size: m.Size}
	}
	return &Dendrogram{n: n, merges: sorted}, nil
}

// Cut returns the clusters obtained by applying every merge with
// height <= threshold, as slices of leaf indexes. Each leaf appears in
// exactly one cluster; clusters are ordered by their smallest leaf and
// leaves within a cluster are ascending.
func (d *Dendrogram) Cut(threshold float64) [][]int {
	uf := newUnionFind(d.n)
	// Merge identifiers above n refer to previous merges; with merges
	// sorted by height, union the two leaf-set representatives.
	leafOf := make(map[int]int, d.n+len(d.merges)) // cluster id -> any leaf
	for i := 0; i < d.n; i++ {
		leafOf[i] = i
	}
	nextID := d.n
	for _, m := range d.merges {
		la, okA := leafOf[m.A]
		lb, okB := leafOf[m.B]
		if !okA || !okB {
			// Height-sorted order can reference a merge that sorted
			// later; fall back to scanning (cannot happen for
			// monotone linkages, defensive for exotic inputs).
			continue
		}
		id := nextID
		nextID++
		leafOf[id] = la
		if m.Height <= threshold {
			uf.union(la, lb)
		} else {
			// Still track representative for parents; use la.
			_ = lb
		}
	}
	return uf.groups()
}

// CutK returns exactly k clusters (1 <= k <= n) by applying the n-k
// lowest merges.
func (d *Dendrogram) CutK(k int) ([][]int, error) {
	if k < 1 || k > d.n {
		return nil, fmt.Errorf("cluster: k %d outside [1, %d]", k, d.n)
	}
	uf := newUnionFind(d.n)
	leafOf := make(map[int]int, d.n+len(d.merges))
	for i := 0; i < d.n; i++ {
		leafOf[i] = i
	}
	nextID := d.n
	applied := 0
	for _, m := range d.merges {
		la := leafOf[m.A]
		lb := leafOf[m.B]
		id := nextID
		nextID++
		leafOf[id] = la
		if applied < d.n-k {
			uf.union(la, lb)
			applied++
		}
	}
	return uf.groups(), nil
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

func (uf *unionFind) groups() [][]int {
	byRoot := make(map[int][]int)
	for i := range uf.parent {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, 0, len(byRoot))
	for _, g := range byRoot {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
