// Package similarity provides content-set similarity primitives: the
// Jaccard coefficient over video sets and extraction of the "top-X%"
// content set of a hotspot from its demand vector. The paper uses the
// Jaccard similarity of nearby hotspots' top-20% content sets both in
// its measurement study (Fig. 3b) and as the clustering distance of the
// content-aggregation stage (Eq. 13). The map-based Jaccard is the
// definition and the reference; JaccardRuns computes the same value for
// one pair of sorted id runs, and one walk of the sets' inverted index
// does it for a whole fleet, with two writers: RankSpan.Fill holds the
// distances as ranks into the table of the values they take, and
// FillDistanceMatrix (behind DistanceMatrix) writes them as floats for
// map sets.
package similarity

import (
	"cmp"
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
	return ratio(inter, len(a)+len(b)-inter)
}

// JaccardRuns is Jaccard over two strictly ascending id runs: one merge
// walk counts |a ∩ b|, and the same integers enter the same float
// expression, so it equals Jaccard on the sets the runs hold (1 for two
// empty runs).
func JaccardRuns(a, b []int32) float64 {
	inter := sharedRuns(a, b)
	return ratio(inter, len(a)+len(b)-inter)
}

// sharedRuns returns |a ∩ b| for two strictly ascending id runs.
func sharedRuns(a, b []int32) int {
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
	return inter
}

// ratio is the Jaccard coefficient of two sets sharing inter of their
// union ids: the one float expression every kernel here evaluates, 1
// for two empty sets.
func ratio(inter, union int) float64 {
	if union == 0 {
		return 1
	}
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

// FillDistanceMatrix writes the full pairwise JaccardDistance matrix
// of sets into cells (n = len(sets), row-major): it lays the sets out as
// runs, in slice order, and the postings walk writes each touched
// pair's 1 − inter/union — the float expression of
// JaccardDistance on the same two integers, so every cell is == to it
// — into cells pre-filled with Jd = 1.
func FillDistanceMatrix(cells []float64, sets []Set, workers int) {
	n := len(sets)
	if len(cells) != n*n {
		panic(fmt.Sprintf("similarity: %d cells for a %d×%d matrix", len(cells), n, n))
	}
	at := make([]int32, 1, n+1)
	var ids []int
	for _, s := range sets {
		for id := range s {
			ids = append(ids, id)
		}
		at = append(at, int32(len(ids)))
	}
	prefill(cells, at, 1)
	newPostings(ids, at).walk(workers, func(i int, touched, shared []int32) {
		a := int(at[i+1] - at[i])
		for _, j := range touched {
			inter := int(shared[j])
			v := 1 - ratio(inter, a+int(at[j+1]-at[j])-inter)
			cells[i*n+int(j)], cells[int(j)*n+i] = v, v
		}
	})
}

// prefill readies an n×n span of the runs at for a walk: far, the
// distance 1, in every cell, and 0 on the diagonal and between two empty
// sets — the cells no walk visits.
func prefill[T ~uint16 | ~uint32 | ~float64](cells []T, at []int32, far T) {
	n := max(len(at)-1, 0)
	for c := range cells {
		cells[c] = far
	}
	var empty []int
	for i := 0; i < n; i++ {
		cells[i*n+i] = 0
		if at[i] == at[i+1] {
			empty = append(empty, i)
		}
	}
	for x, i := range empty {
		for _, j := range empty[x+1:] {
			cells[i*n+j], cells[j*n+i] = 0, 0
		}
	}
}

// postings is the id → sets inverted index of n id sets laid out as
// runs: both directions of the membership relation in CSR form, with no
// map. The memberships ordered by id (stably, so each id's sets ascend)
// are the posting lists back to back, and a run of equal ids in that
// order is one dense id. Set i holds the dense ids
// member[at[i]:at[i+1]], and dense id k is held by the sets
// post[postAt[k]:postAt[k+1]].
type postings struct {
	at, member, post, postAt []int32
}

func newPostings[ID ~int32 | ~int](ids []ID, at []int32) *postings {
	setOf := make([]int32, len(ids))
	for i := 0; i+1 < len(at); i++ {
		for x := at[i]; x < at[i+1]; x++ {
			setOf[x] = int32(i)
		}
	}
	byID := orderByID(ids)
	p := &postings{
		at:     at,
		member: make([]int32, len(ids)),
		post:   make([]int32, len(ids)),
		postAt: make([]int32, 0, len(ids)+1),
	}
	for x, pos := range byID {
		if x == 0 || ids[pos] != ids[byID[x-1]] {
			p.postAt = append(p.postAt, int32(x))
		}
		p.member[pos] = int32(len(p.postAt) - 1)
		p.post[x] = setOf[pos]
	}
	p.postAt = append(p.postAt, int32(len(ids)))
	return p
}

// walk counts, for each set i, how many ids every later set j shares
// with it, and hands row i the js that share any (touched) with their
// counts (shared[j]). Row i walks the posting lists of its own ids, so
// the work is Σ_v C(n_v, 2) increments, n_v the number of sets holding
// id v, and a pair that shares nothing is never visited; DESIGN §9
// sets that against a dense word-parallel kernel. Rows fan out over
// workers goroutines (0 selects GOMAXPROCS, 1 is serial), striped so
// the shrinking upper-triangle rows balance, each with its own scratch,
// so row may write the cells of the pairs (i, j) and (j, i) of its
// touched js without a lock.
func (p *postings) walk(workers int, row func(i int, touched, shared []int32)) {
	n := max(len(p.at)-1, 0)
	w := min(par.Workers(workers), n)
	par.Strided(w, w, func(first int) {
		shared := make([]int32, n) // |set i ∩ set j| for the current row i; zero between rows
		var touched []int32        // the j with shared[j] > 0
		for i := first; i < n; i += w {
			for _, k := range p.member[p.at[i]:p.at[i+1]] {
				pl := p.post[p.postAt[k]:p.postAt[k+1]]
				for x := len(pl) - 1; x >= 0 && int(pl[x]) > i; x-- {
					j := pl[x]
					if shared[j] == 0 {
						touched = append(touched, j)
					}
					shared[j]++
				}
			}
			row(i, touched, shared)
			for _, j := range touched {
				shared[j] = 0
			}
			touched = touched[:0]
		}
	})
}

// RankSpan is an n×n content-aware distance matrix held as ranks: a
// cell r stands for the distance Levels[r]. Levels holds the distances
// the matrix can take, ascending, each computed with the float
// expression of JaccardDistance and equal floats once, so rank order is
// distance order. A pair of sets sharing inter ids among union has the
// key inter·(2L+1) + union, L the longest set, and Levels comes from
// one of two key collections, chosen by the sets' shape:
//
//   - Dense, while the keys up to L ((L+1)(2L+1) of them, 5,151 at
//     L = 50) are at most 2n²: Levels is 0, 1 and the value of every
//     key, and keyRank a table of every key's rank (at most 8·n² bytes,
//     the float64 matrix the span replaces; 20 KB at L = 50). Its build
//     is O(keys) with no sort (reachTo); it is kept and rebuilt only
//     when a fill's longest set outgrows it, so a fill is one walk.
//   - Sparse, for sets long beside their number (about L > n): a serial
//     first walk appends the key of every pair sharing ids to present,
//     sorted and compacted; Levels is 0, 1 and their values, keyRank
//     the rank of each, and a key's rank is found by binary search. The
//     storage is O(n²), whatever L.
//
// The cells are uint16 (Narrow) while Levels has at most 65,536 values
// (a dense table passes that from L = 329) and uint32 (Wide) past
// that: the first fill that needs the wide cells releases the narrow
// ones, and the span stays wide, so it never holds both. A RankSpan is
// reusable; each fill rewrites every cell and keeps the storage.
type RankSpan struct {
	Levels []float64
	Narrow []uint16
	Wide   []uint32

	sizes   []int32
	stride  int // 2L+1 of the keys
	reach   int // dense: the L the table covers; −1 when it holds a sparse fill's
	present []int
	keyRank []uint32
}

// levelKey is one distance, with where its rank goes in keyRank (−1
// for the levels 0 and 1, which every span has).
type levelKey struct {
	v  float64
	at int
}

// Fill makes sp the distance matrix of n = len(at)−1 id sets laid out
// as runs of one span — set i is ids[at[i]:at[i+1]], at[0] = 0, and no
// run holds an id twice: the postings walk writes each touched pair's
// rank into cells pre-filled with the rank of Jd = 1 (two empty sets
// are Jd = 0, as in JaccardDistance). The result is identical for every
// worker count and every order of the ids within a run.
func (sp *RankSpan) Fill(ids, at []int32, workers int) {
	n := max(len(at)-1, 0)
	sp.sizes = resize(sp.sizes, n)
	for i := range sp.sizes {
		sp.sizes[i] = at[i+1] - at[i]
	}
	p := newPostings(ids, at)
	if longest := sp.longest(); denseKeys(n, longest) {
		sp.reachTo(longest)
	} else {
		sp.collect(longest, func(mark func(key int)) {
			p.walk(1, func(i int, touched, shared []int32) {
				for _, j := range touched {
					mark(sp.key(i, int(j), int(shared[j])))
				}
			})
		})
	}
	if sp.sizeCells(n) {
		fillRanks(sp, sp.Narrow, p, workers)
	} else {
		fillRanks(sp, sp.Wide, p, workers)
	}
}

func fillRanks[R ~uint16 | ~uint32](sp *RankSpan, cells []R, p *postings, workers int) {
	n := len(sp.sizes)
	prefill(cells, p.at, R(len(sp.Levels)-1)) // the level 1 is the largest
	p.walk(workers, func(i int, touched, shared []int32) {
		for _, j := range touched {
			r := R(sp.rank(sp.key(i, int(j), int(shared[j]))))
			cells[i*n+int(j)], cells[int(j)*n+i] = r, r
		}
	})
}

// sizeCells sizes the cells for n sets at the width Levels needs and
// reports whether they are the narrow ones; the first time it takes
// the wide ones it releases the narrow.
func (sp *RankSpan) sizeCells(n int) (narrow bool) {
	if sp.Wide == nil && len(sp.Levels) <= 1<<16 {
		sp.Narrow = resize(sp.Narrow, n*n)
		return true
	}
	sp.Narrow, sp.Wide = nil, resize(sp.Wide, n*n)
	return false
}

// denseKeys reports whether the keys of n sets no longer than longest
// are collected densely: when there are at most 2n² of them, so their
// table is no larger than an n×n float64 matrix. A variable, so tests
// can force either way.
var denseKeys = func(n, longest int) bool { return (longest+1)*(2*longest+1) <= 2*n*n }

func (sp *RankSpan) longest() int {
	longest := 0
	for _, a := range sp.sizes {
		longest = max(longest, int(a))
	}
	return longest
}

// key is the pair key of sets i and j sharing inter ids.
func (sp *RankSpan) key(i, j, inter int) int {
	return inter*sp.stride + int(sp.sizes[i]) + int(sp.sizes[j]) - inter
}

// reachTo makes the dense table cover sets of up to longest ids —
// every (inter, union) two such sets sharing ids can form, that is
// 1 ≤ inter ≤ union with inter + union ≤ 2·longest — unless it already
// does. Ascending distance is descending inter/union, so the levels
// come in order with no sort: 1/1 (Jd 0), the reduced fractions of the
// Stern–Brocot tree between 0/1 and 1/1, walked larger half first and
// pruned where numerator + denominator passes 2·longest (a subtree's
// sums only grow), then Jd 1. Each level's rank goes to every key that
// reduces to its fraction, so the build is O(keys).
func (sp *RankSpan) reachTo(longest int) {
	if len(sp.Levels) > 0 && sp.reach >= longest {
		return
	}
	sp.reach, sp.stride, sp.present = longest, 2*longest+1, nil
	sp.keyRank = resize(sp.keyRank, (longest+1)*sp.stride)
	sp.Levels = sp.Levels[:0]
	sp.level(1, 1)
	sp.descend(0, 1, 1, 1)
	sp.Levels = append(sp.Levels, 1)
}

// descend adds the levels of the reduced fractions strictly between
// a/b and c/d whose numerator and denominator sum to at most
// 2·reach, largest fraction first.
func (sp *RankSpan) descend(a, b, c, d int) {
	p, q := a+c, b+d
	if p+q > 2*sp.reach {
		return
	}
	sp.descend(p, q, c, d)
	sp.level(p, q)
	sp.descend(a, b, p, q)
}

// level appends the distance 1 − p/q, p/q reduced, and gives its rank
// to every key k·p, k·q.
func (sp *RankSpan) level(p, q int) {
	sp.Levels = append(sp.Levels, 1-ratio(p, q))
	r := uint32(len(sp.Levels) - 1)
	for k := 1; k*(p+q) <= 2*sp.reach; k++ {
		sp.keyRank[k*p*sp.stride+k*q] = r
	}
}

// collect builds Levels from the keys that walk marks, one goroutine
// marking; the table no longer covers any reach.
func (sp *RankSpan) collect(longest int, walk func(mark func(key int))) {
	sp.reach, sp.stride = -1, 2*longest+1
	sp.present = sp.present[:0]
	walk(func(key int) { sp.present = append(sp.present, key) })
	slices.Sort(sp.present)
	sp.present = slices.Compact(sp.present)
	sp.keyRank = resize(sp.keyRank, len(sp.present))
	keys := make([]levelKey, 2, len(sp.present)+2)
	keys[0], keys[1] = levelKey{0, -1}, levelKey{1, -1}
	for x, key := range sp.present {
		keys = append(keys, levelKey{1 - ratio(key/sp.stride, key%sp.stride), x})
	}
	sp.rankKeys(keys)
}

// rankKeys sorts keys into Levels and writes each key's rank.
func (sp *RankSpan) rankKeys(keys []levelKey) {
	slices.SortFunc(keys, func(a, b levelKey) int { return cmp.Compare(a.v, b.v) })
	sp.Levels = sp.Levels[:0]
	for x, k := range keys {
		if x == 0 || k.v != keys[x-1].v {
			sp.Levels = append(sp.Levels, k.v)
		}
		if k.at >= 0 {
			sp.keyRank[k.at] = uint32(len(sp.Levels) - 1)
		}
	}
}

// rank is the rank of a key present in the fill.
func (sp *RankSpan) rank(key int) uint32 {
	if sp.reach < 0 {
		key, _ = slices.BinarySearch(sp.present, key)
	}
	return sp.keyRank[key]
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
