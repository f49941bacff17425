// Package similarity provides content-set similarity primitives: the
// Jaccard coefficient over video sets and extraction of the "top-X%"
// content set of a hotspot from its demand vector. The paper uses the
// Jaccard similarity of nearby hotspots' top-20% content sets both in
// its measurement study (Fig. 3b) and as the clustering distance of the
// content-aggregation stage (Eq. 13). The map-based Jaccard is the
// definition and the reference; JaccardRuns computes the same value for
// one pair of sorted id runs, FillDistanceRuns for a whole fleet from
// an inverted index of the sets, and DistanceMatrix is that kernel over
// map sets.
package similarity

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/par"
)

// Set is a set of video (or other) integer identifiers.
type Set map[int]struct{}

// NewSet builds a set from ids, dropping duplicates.
func NewSet(ids ...int) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Contains reports whether id is in the set.
func (s Set) Contains(id int) bool {
	_, ok := s[id]
	return ok
}

// Add inserts id.
func (s Set) Add(id int) { s[id] = struct{}{} }

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Sorted returns the members in ascending order.
func (s Set) Sorted() []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Jaccard returns |a ∩ b| / |a ∪ b| (Eq. 1 of the paper). Two empty
// sets are defined to have similarity 1 (identical), matching the
// convention that an empty hotspot is trivially similar to another
// empty one.
func Jaccard(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for id := range small {
		if large.Contains(id) {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// JaccardRuns is Jaccard over two strictly ascending id runs: one merge
// walk counts |a ∩ b|, and the same integers enter the same float
// expression, so it equals Jaccard on the sets the runs hold (1 for two
// empty runs).
func JaccardRuns(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter, i, j = inter+1, i+1, j+1
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard(a, b), the content-aware distance
// Jd of Eq. 13.
func JaccardDistance(a, b Set) float64 { return 1 - Jaccard(a, b) }

// DistanceMatrix computes the full pairwise JaccardDistance matrix of
// sets: one freshly allocated n·n span filled by FillDistanceMatrix,
// returned as its n row views.
func DistanceMatrix(sets []Set, workers int) [][]float64 {
	n := len(sets)
	cells := make([]float64, n*n)
	FillDistanceMatrix(cells, sets, workers)
	d := make([][]float64, n)
	for i := range d {
		d[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return d
}

// FillDistanceMatrix is FillDistanceRuns over map sets: it lays sets out
// as runs, in slice order, and fills cells (n = len(sets)) from them.
func FillDistanceMatrix(cells []float64, sets []Set, workers int) {
	at := make([]int32, 1, len(sets)+1)
	var ids []int
	for _, s := range sets {
		for id := range s {
			ids = append(ids, id)
		}
		at = append(at, int32(len(ids)))
	}
	FillDistanceRuns(cells, ids, at, workers)
}

// FillDistanceRuns writes the full pairwise JaccardDistance matrix of n
// id sets laid out as runs of one span — set i is ids[at[i]:at[i+1]],
// n = len(at)−1, at[0] = 0, and no run holds an id twice — into cells,
// row-major (cells[i*n+j] = Jd(set i, set j)). cells must hold exactly
// n·n values and every one of them is overwritten, so a caller may hand
// the same span back round after round. The values are exact and cost
// time proportional to the pairs that share an id rather than to pairs
// × id universe. The fill builds the id → sets inverted index once; row
// i then walks the posting lists of its own ids and counts, per later
// set j, how many ids they share. That count is |A∩B|,
// |A∪B| = |A|+|B|−|A∩B| needs no second pass, and a pair that shares
// nothing keeps the pre-filled Jd = 1 without being visited (two empty
// sets are Jd = 0, as in JaccardDistance). The work is one n²-cell
// pre-fill plus Σ_v C(n_v, 2) increments, n_v the number of sets
// holding id v; DESIGN §9 sets that against a dense word-parallel
// kernel.
//
// Rows fan out over workers goroutines (0 selects GOMAXPROCS, 1 is
// serial), striped so the shrinking upper-triangle rows balance; every
// cell has exactly one writer and the same integers enter the same
// 1 − inter/union float as in JaccardDistance, so the result is
// bit-identical to it for every worker count and every order of the
// ids within a run. The diagonal is 0.
func FillDistanceRuns[ID ~int32 | ~int](cells []float64, ids []ID, at []int32, workers int) {
	n := max(len(at)-1, 0)
	if len(cells) != n*n {
		panic(fmt.Sprintf("similarity: %d cells for a %d×%d distance matrix", len(cells), n, n))
	}
	for i := range cells {
		cells[i] = 1
	}
	for i := 0; i < n; i++ {
		cells[i*n+i] = 0
	}

	// Both directions of the membership relation in CSR form, with no
	// map: the memberships ordered by id (stably, so each id's sets
	// ascend) are the posting lists back to back, and a run of equal ids
	// in that order is one dense id. Set i holds the dense ids
	// member[at[i]:at[i+1]], and dense id k is held by the sets
	// post[postAt[k]:postAt[k+1]].
	setOf := make([]int32, len(ids))
	var empty []int
	for i := 0; i < n; i++ {
		if at[i] == at[i+1] {
			empty = append(empty, i)
		}
		for x := at[i]; x < at[i+1]; x++ {
			setOf[x] = int32(i)
		}
	}
	byID := orderByID(ids)
	member := make([]int32, len(ids))
	post := make([]int32, len(ids))
	postAt := make([]int32, 0, len(ids)+1)
	for x, pos := range byID {
		if x == 0 || ids[pos] != ids[byID[x-1]] {
			postAt = append(postAt, int32(x))
		}
		member[pos] = int32(len(postAt) - 1)
		post[x] = setOf[pos]
	}
	postAt = append(postAt, int32(len(ids)))

	// No posting list holds an empty set, so these cells are out of the
	// row loop's reach and it out of theirs.
	for a, i := range empty {
		for _, j := range empty[a+1:] {
			cells[i*n+j], cells[j*n+i] = 0, 0
		}
	}

	// One goroutine per worker, each striding over its own rows with
	// its own scratch.
	w := min(par.Workers(workers), n)
	par.Strided(w, w, func(first int) {
		shared := make([]int32, n) // |set i ∩ set j| for the current row i; zero between rows
		var touched []int32        // the j with shared[j] > 0
		for i := first; i < n; i += w {
			mine := member[at[i]:at[i+1]]
			for _, k := range mine {
				p := post[postAt[k]:postAt[k+1]]
				for x := len(p) - 1; x >= 0 && int(p[x]) > i; x-- {
					j := p[x]
					if shared[j] == 0 {
						touched = append(touched, j)
					}
					shared[j]++
				}
			}
			for _, j := range touched {
				inter := int(shared[j])
				union := len(mine) + int(at[j+1]-at[j]) - inter
				v := 1 - float64(inter)/float64(union)
				cells[i*n+int(j)], cells[int(j)*n+i] = v, v
				shared[j] = 0
			}
			touched = touched[:0]
		}
	})
}

// orderByID returns the positions of ids ordered by id, equal ids in
// position order: one stable counting pass per byte of the span
// max − min, least significant first, so the pass count follows the ids
// actually present whatever their range.
func orderByID[ID ~int32 | ~int](ids []ID) []int32 {
	order := make([]int32, len(ids))
	for x := range order {
		order[x] = int32(x)
	}
	if len(ids) == 0 {
		return order
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	// Two's-complement differences are exact: hi − lo < 2⁶⁴.
	key := func(id ID) uint64 { return uint64(id) - uint64(lo) }
	buf := make([]int32, len(ids))
	for shift := 0; key(hi)>>shift > 0; shift += 8 {
		var at [257]int32 // at[b+1] counts bucket b, then at[b] is where b starts
		for _, id := range ids {
			at[key(id)>>shift&255+1]++
		}
		for b := 0; b < 256; b++ {
			at[b+1] += at[b]
		}
		for _, x := range order {
			b := key(ids[x]) >> shift & 255
			buf[at[b]] = x
			at[b]++
		}
		order, buf = buf, order
	}
	return order
}

// TopFraction returns the items accounting for the top frac of entries
// by demand, i.e. the ceil(frac*|support|) most-demanded items. The
// paper uses frac = 0.20 ("Top-20%"), justified by the Pareto 80/20
// rule of video popularity. Ties are broken deterministically by
// smaller identifier. frac must be in (0, 1].
func TopFraction(demand map[int]int64, frac float64) (Set, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("similarity: fraction %v outside (0, 1]", frac)
	}
	return TopK(demand, TopCount(len(demand), frac))
}

// TopCount is the size of the top-frac support of n entries,
// ceil(frac·n) but never below 1 while there is an entry at all: the
// one place TopFraction's k is spelled, for callers that rank the
// entries themselves.
func TopCount(n int, frac float64) int {
	if n == 0 {
		return 0
	}
	return max(1, int(float64(n)*frac+0.999999))
}

// entry is one (item, demand) pair of a demand vector being ranked.
type entry struct {
	id  int
	cnt int64
}

// cmpEntry orders entries by descending demand, ties broken by smaller
// identifier — a strict total order, so any comparison sort yields the
// same deterministic ranking.
func cmpEntry(a, b entry) int {
	switch {
	case a.cnt != b.cnt:
		if a.cnt > b.cnt {
			return -1
		}
		return 1
	case a.id != b.id:
		if a.id < b.id {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// TopK returns the k most-demanded items (all items when k exceeds the
// support). Ties are broken deterministically by smaller identifier.
func TopK(demand map[int]int64, k int) (Set, error) {
	if k < 0 {
		return nil, fmt.Errorf("similarity: negative k %d", k)
	}
	entries := make([]entry, 0, len(demand))
	for id, cnt := range demand {
		entries = append(entries, entry{id: id, cnt: cnt})
	}
	slices.SortFunc(entries, cmpEntry)
	if k > len(entries) {
		k = len(entries)
	}
	out := make(Set, k)
	for _, e := range entries[:k] {
		out.Add(e.id)
	}
	return out, nil
}
