package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/similarity"
)

// referenceAgglomerate is the nearest-neighbour chain as it stood before
// the kernel moved onto one flat, consumable matrix: [][]float64 rows, a
// []bool of active slots scanned in full every time, math.Max. Kept
// verbatim, less the linkages the package no longer has, as the oracle —
// the chain's tie-breaks (smallest slot, chain predecessor preferred)
// decide which slot survives a merge and so every later merge, and with
// Jaccard distances over ~7-video signatures ties are the rule.
func referenceAgglomerate(n int, d [][]float64) (*Dendrogram, error) {
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
				nv := math.Max(d[a][s], d[b][s])
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

// referenceCut is Cut as it stood on a map[int]int leaf table and a
// union-find grouped through a map[int][]int, kept verbatim as the
// oracle for the slice version's output order.
func referenceCut(d *Dendrogram, threshold float64) [][]int {
	uf := newReferenceUnionFind(d.n)
	leafOf := make(map[int]int, d.n+len(d.merges)) // cluster id -> any leaf
	for i := 0; i < d.n; i++ {
		leafOf[i] = i
	}
	nextID := d.n
	for _, m := range d.merges {
		la, okA := leafOf[m.A]
		lb, okB := leafOf[m.B]
		if !okA || !okB {
			continue
		}
		id := nextID
		nextID++
		leafOf[id] = la
		if m.Height <= threshold {
			uf.union(la, lb)
		}
	}
	return uf.groups()
}

type referenceUnionFind struct {
	parent []int
	rank   []int
}

func newReferenceUnionFind(n int) *referenceUnionFind {
	uf := &referenceUnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *referenceUnionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *referenceUnionFind) union(a, b int) {
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

func (uf *referenceUnionFind) groups() [][]int {
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

// symmetric builds an n×n matrix with a zero diagonal from one value per
// unordered pair.
func symmetric(n int, pair func(i, j int) float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := pair(i, j)
			m[i][j], m[j][i] = v, v
		}
	}
	return m
}

// citySets draws n content signatures shaped like the serving
// benchmark's city fleet: about seven ids each from a small shared head
// plus a long tail, one id in most of them, and an idle hotspot — an
// empty signature — every 40th.
func citySets(n int, rng *rand.Rand) []similarity.Set {
	sets := make([]similarity.Set, n)
	for i := range sets {
		sets[i] = similarity.Set{}
		if i%40 == 7 {
			continue
		}
		if rng.Intn(3) > 0 {
			sets[i].Add(0)
		}
		for want := 5 + rng.Intn(4); sets[i].Len() < want; {
			id := 1 + rng.Intn(12)
			if rng.Intn(4) == 0 {
				id = 13 + rng.Intn(900)
			}
			sets[i].Add(id)
		}
	}
	return sets
}

// cityJaccard is the JaccardDistance matrix of n citySets.
func cityJaccard(n int, rng *rand.Rand) [][]float64 {
	sets := citySets(n, rng)
	return symmetric(n, func(i, j int) float64 { return similarity.JaccardDistance(sets[i], sets[j]) })
}

// tieFamilies are seeded distance families on which equal distances are
// the rule, so the chain's tie-breaks decide the dendrogram.
var tieFamilies = []struct {
	name string
	make func(n int, rng *rand.Rand) [][]float64
}{
	{"eighths", func(n int, rng *rand.Rand) [][]float64 {
		return symmetric(n, func(int, int) float64 { return float64(rng.Intn(9)) / 8 })
	}},
	{"city-jaccard", cityJaccard},
	{"all-equal", func(n int, _ *rand.Rand) [][]float64 {
		return symmetric(n, func(int, int) float64 { return 0.5 })
	}},
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = slices.Clone(m[i])
	}
	return out
}

func flatten(m [][]float64) []float64 {
	var cells []float64
	for _, row := range m {
		cells = append(cells, row...)
	}
	return cells
}

// sameBits reports whether two spans hold the same floats bit for bit
// (so a NaN equals itself and -0 differs from 0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rankMatrix is the rank span of a float distance matrix: every
// distinct value in it, ascending, and each cell's index among them —
// what the round's rank fill hands the in-place door.
func rankMatrix(m [][]float64) ([]uint16, []float64) {
	var levels []float64
	for _, row := range m {
		levels = append(levels, row...)
	}
	slices.Sort(levels)
	levels = slices.Compact(levels)
	ranks := make([]uint16, 0, len(m)*len(m))
	for _, row := range m {
		for _, v := range row {
			r, _ := slices.BinarySearch(levels, v)
			ranks = append(ranks, uint16(r))
		}
	}
	return ranks, levels
}

// widen is a rank span on the uint32 fallback's type.
func widen(ranks []uint16) []uint32 {
	out := make([]uint32, len(ranks))
	for i, r := range ranks {
		out[i] = uint32(r)
	}
	return out
}

// sameMerges reports whether two merge lists agree on every A, B, Size
// and the bits of every Height.
func sameMerges(a, b []Merge) bool {
	return slices.EqualFunc(a, b, func(x, y Merge) bool {
		return x.A == y.A && x.B == y.B && x.Size == y.Size && math.Float64bits(x.Height) == math.Float64bits(y.Height)
	})
}

// TestAgglomerateMatchesReference holds the rank kernel to the old
// float chain through every door: the full merge list — A, B, Height
// bits, Size — must be equal on every tie-heavy family, through the
// copying door (which must leave its input bit-for-bit alone) and the
// in-place one at both rank widths, and Cut on slices must group
// exactly as the map version did.
func TestAgglomerateMatchesReference(t *testing.T) {
	for _, fam := range tieFamilies {
		for _, n := range []int{1, 2, 3, 17, 200} {
			for seed := int64(1); seed <= 3; seed++ {
				dist := fam.make(n, rand.New(rand.NewSource(seed*1000+int64(n))))
				name := fmt.Sprintf("%s/n=%d/seed=%d", fam.name, n, seed)
				want, err := referenceAgglomerate(n, cloneMatrix(dist))
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if n == 1 {
					want.merges = nil // the doors return before the kernel
				}

				input := cloneMatrix(dist)
				viaMatrix, err := AgglomerativeMatrix(input, Complete)
				if err != nil {
					t.Fatalf("%s: AgglomerativeMatrix: %v", name, err)
				}
				if !sameBits(flatten(input), flatten(dist)) {
					t.Errorf("%s: AgglomerativeMatrix modified its input", name)
				}
				ranks, levels := rankMatrix(dist)
				wide := widen(ranks)
				inPlace, err := AgglomerativeInPlace(n, ranks, levels)
				if err != nil {
					t.Fatalf("%s: AgglomerativeInPlace: %v", name, err)
				}
				inPlaceWide, err := AgglomerativeInPlace(n, wide, levels)
				if err != nil {
					t.Fatalf("%s: AgglomerativeInPlace (uint32): %v", name, err)
				}
				for door, got := range map[string]*Dendrogram{
					"AgglomerativeMatrix": viaMatrix, "AgglomerativeInPlace": inPlace, "AgglomerativeInPlace (uint32)": inPlaceWide,
				} {
					if got.n != n || !sameMerges(got.merges, want.merges) {
						t.Fatalf("%s: %s diverges from the reference chain:\n got %+v\nwant %+v", name, door, got.merges, want.merges)
					}
				}

				for _, threshold := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
					if got, ref := inPlace.Cut(threshold), referenceCut(want, threshold); !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: Cut(%v) = %v, reference %v", name, threshold, got, ref)
					}
				}
			}
		}
	}
}

// TestAgglomerativeInPlaceRejectsBeforeMutating feeds the in-place door
// inputs it must refuse and checks it hands every cell back as it got
// it: a bad rank sits in the last upper-triangle cell, behind every
// cell a validate-as-you-go kernel would already have consumed. The
// float values the rank door cannot be handed — NaN, ±Inf, negative —
// are refused by the copying door, which never writes its input.
func TestAgglomerativeInPlaceRejectsBeforeMutating(t *testing.T) {
	const n = 17
	rng := rand.New(rand.NewSource(23))
	good, levels := rankMatrix(symmetric(n, func(int, int) float64 { return float64(rng.Intn(9)) / 8 }))
	last := (n-2)*n + (n - 1)
	descending := slices.Clone(levels)
	slices.Reverse(descending)
	bad := func(r uint16) []uint16 {
		c := slices.Clone(good)
		c[last] = r
		return c
	}
	cases := []struct {
		name   string
		n      int
		levels []float64
		cells  []uint16
	}{
		{"rank=len(levels)", n, levels, bad(uint16(len(levels)))},
		{"rank=max", n, levels, bad(math.MaxUint16)},
		{"no levels", n, nil, slices.Clone(good)},
		{"NaN level", n, append(slices.Clone(levels[:len(levels)-1]), math.NaN()), slices.Clone(good)},
		{"+Inf level", n, append(slices.Clone(levels[:len(levels)-1]), math.Inf(1)), slices.Clone(good)},
		{"negative level", n, append([]float64{-0.125}, levels[1:]...), slices.Clone(good)},
		{"repeated level", n, append([]float64{levels[1]}, levels[1:]...), slices.Clone(good)},
		{"descending levels", n, descending, slices.Clone(good)},
		{"too-short", n, levels, slices.Clone(good[:n*n-1])},
		{"too-long", n, levels, append(slices.Clone(good), 0)},
		{"n=0", 0, levels, nil},
		{"n<0", -3, levels, nil},
	}
	for _, tc := range cases {
		before := slices.Clone(tc.cells)
		if d, err := AgglomerativeInPlace(tc.n, tc.cells, tc.levels); err == nil {
			t.Errorf("%s: accepted, dendrogram %+v", tc.name, d)
		}
		if !slices.Equal(tc.cells, before) {
			t.Errorf("%s: rejected input came back modified", tc.name)
		}
	}
	floats := symmetric(n, func(i, j int) float64 { return levels[good[i*n+j]] })
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.125} {
		m := cloneMatrix(floats)
		m[n-2][n-1], m[n-1][n-2] = v, v
		before := cloneMatrix(m)
		if d, err := AgglomerativeMatrix(m, Complete); err == nil {
			t.Errorf("distance %v: accepted, dendrogram %+v", v, d)
		}
		if !sameBits(flatten(m), flatten(before)) {
			t.Errorf("distance %v: rejected input came back modified", v)
		}
	}
	// The accepted case does consume its input — that is the contract the
	// rejections are measured against.
	cells := slices.Clone(good)
	if _, err := AgglomerativeInPlace(n, cells, levels); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(cells, good) {
		t.Error("in-place door left a valid span untouched: the test no longer exercises the consuming kernel")
	}
	if d, err := AgglomerativeInPlace(1, []uint16{0}, []float64{0}); err != nil || d.n != 1 || len(d.merges) != 0 {
		t.Errorf("single item: %+v, %v", d, err)
	}
}
