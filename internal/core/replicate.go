package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// demandEntry is one (video, count) cell of hotspot's demand row. The
// hotspot rides in what would otherwise be padding: the table's last
// pass keys on it.
type demandEntry struct {
	video   trace.VideoID
	hotspot int32
	count   int64
}

// demandTable is one round's demand in CSR form, every entry of d's
// rows (zero and negative counts included) in two views of the same
// rows: hotspot h's entries are [rowAt[h], rowAt[h+1]) of byVideo,
// video-ascending, and of byRank, ranked (count desc, video asc). The
// signature of h is the first TopCount entries of its rank row, the fill
// candidates of a hotspot stage A never drew from are its rank row's
// positive prefix, and a flow source's λ_rem is its video row's positive
// entries. The video rows are the demand's folded rows; the rank rows
// come from counting passes over them, not comparisons (DESIGN §9). The
// table is built at most once per ScheduleRound (built is reset on
// entry, never keyed on the *Demand: callers reuse and mutate demand
// objects) into storage the arena keeps.
type demandTable struct {
	built   bool
	rowAt   []int32
	byVideo []demandEntry
	byRank  []demandEntry
	a, b    []demandEntry // the passes' buffers, then fillCands'
	next    []int32       // regroup's per-row cursors
}

func (t *demandTable) videoRow(h int) []demandEntry { return t.byVideo[t.rowAt[h]:t.rowAt[h+1]] }
func (t *demandTable) rankRow(h int) []demandEntry  { return t.byRank[t.rowAt[h]:t.rowAt[h+1]] }

// demandTable returns the round's demand table, building it on the
// round's first use — inside the cluster phase when the round clusters,
// inside the replicate phase otherwise.
//
// The video rows are copied from the demand's folded rows (a row still
// holding unfolded entries is folded into a copy). Stable counting
// passes over the bytes of maxCount − count, applied to the video rows,
// and then one over the hotspot give the rank rows, ties left
// video-ascending. The pass count follows the range actually present.
func (s *Scheduler) demandTable(d *Demand) *demandTable {
	t := &s.ar.table
	if t.built {
		return t
	}
	byVideo := t.byVideo[:0]
	t.rowAt = append(t.rowAt[:0], 0)
	minC, maxC := int64(math.MaxInt64), int64(math.MinInt64)
	for h := range d.rows {
		for _, e := range d.row(h) {
			byVideo = append(byVideo, demandEntry{video: e.video, hotspot: int32(h), count: e.count})
			minC, maxC = min(minC, e.count), max(maxC, e.count)
		}
		t.rowAt = append(t.rowAt, int32(len(byVideo)))
	}
	n := len(byVideo)
	grow := func(buf []demandEntry) []demandEntry { return slices.Grow(buf[:0], n)[:n] }
	t.byVideo, t.a, t.b, t.byRank = byVideo, grow(t.a), grow(t.b), grow(t.byRank)

	// (With no cells the range is inverted and the passes run over
	// nothing.) Two's-complement differences are exact: maxCount −
	// count < 2⁶⁴.
	sorted := radixPasses(t.byVideo, t.a, t.b, countDesc(maxC), uint64(maxC)-uint64(minC))
	t.regroup(sorted, t.byRank)
	t.built = true
	return t
}

// regroup is the table's last, most significant pass: it scatters src
// into dst by hotspot, stably, hotspot h landing on [rowAt[h],
// rowAt[h+1]).
func (t *demandTable) regroup(src, dst []demandEntry) {
	t.next = append(t.next[:0], t.rowAt[:len(t.rowAt)-1]...)
	for _, e := range src {
		dst[t.next[e.hotspot]] = e
		t.next[e.hotspot]++
	}
}

// radixKey is the key radixPasses sorts on, off + video&vmask −
// count&cmask: count descending from a base (countDesc) or video
// ascending from one (videoAsc). Masks, not a branch, select the field,
// which keeps the passes' loops branch-free.
type radixKey struct {
	off, vmask, cmask uint64
}

func countDesc(base int64) radixKey {
	return radixKey{off: uint64(base), cmask: math.MaxUint64}
}

func videoAsc(base trace.VideoID) radixKey {
	return radixKey{off: -uint64(base), vmask: math.MaxUint64}
}

func (k radixKey) of(e demandEntry) uint64 {
	return k.off + uint64(e.video)&k.vmask - uint64(e.count)&k.cmask
}

// radixPasses stably sorts src by key ascending: one counting pass per
// byte of top, the largest key, least significant first. The passes
// write a, then b, then a again; only the first reads src, so b may be
// src when the caller has no further use for it. It returns the sorted
// entries: src itself when top is 0.
func radixPasses(src, a, b []demandEntry, key radixKey, top uint64) []demandEntry {
	sorted, next, spare := src, a[:len(src)], b[:len(src)]
	for shift := uint(0); top>>shift > 0; shift += 8 {
		countingPass(sorted, next, key, shift)
		sorted, next, spare = next, spare, next
	}
	return sorted
}

// countingPass writes src into dst stably by the digit key >> shift &
// 255.
func countingPass(src, dst []demandEntry, key radixKey, shift uint) {
	var at [257]int32 // at[k+1] counts digit k, then at[k] is where k goes next
	for _, e := range src {
		at[int(uint8(key.of(e)>>shift))+1]++
	}
	for k := 0; k < 256; k++ {
		at[k+1] += at[k]
	}
	for _, e := range src {
		k := uint8(key.of(e) >> shift)
		dst[at[k]] = e
		at[k]++
	}
}

// replicate implements Procedure 1 (ContentAggregationReplication): it
// converts the inter-hotspot flows f_ij into per-video request
// redirects using the content-placement efficiency index
// eu(v,j) = Σ_i min(f_ij, λ_iv), placing redirected videos at their
// targets, and then greedily fills the remaining cache space with
// locally demanded videos ranked by the offload efficiency index
// el(v,i) until caches are full or the replication budget BPeak is
// reached.
//
// It returns the redirects, the placement y, the amount of flow that
// could not be realised into concrete redirects (no matching demand or
// no cache space at the target), and the total number of replicas.
// cache holds the round's effective per-hotspot cache capacities
// (nominal or degraded).
func (s *Scheduler) replicate(d *Demand, flows map[int64]int64, svc []int64, cache []int) (
	redirects []Redirect,
	placement PlacementRuns,
	unrealized int64,
	replicas int64,
	err error,
) {
	m := len(s.world.Hotspots)
	t := s.demandTable(d)
	redirects, unrealized = s.stageA(t, flows, cache)
	if unrealized < 0 {
		return nil, PlacementRuns{}, 0, 0, fmt.Errorf("core: negative unrealized flow %d (bug)", unrealized)
	}
	serveBudget := s.fillBudgets(svc, redirects)
	placement.Off = make([]int, 1, m+1)

	if s.params.BPeak > 0 {
		// Greedy local fill (Procedure 1, lines 14-19): replicate the
		// highest remaining local demand el(v, i) = λ_iv until caches
		// fill or the budget runs out. BPeak is a single global budget
		// consumed in global (count, hotspot, video) order, so the rows
		// cannot be decomposed — keep the global walk.
		type localDemand struct {
			hotspot int
			video   trace.VideoID
			count   int64
		}
		var fill []localDemand
		held := make([]int, m)
		for i := 0; i < m; i++ {
			placed := s.ar.placedAt(i)
			held[i] = len(placed)
			replicas += int64(len(placed))
			if len(placed) >= cache[i] {
				continue
			}
			for _, e := range s.ar.fillCands(t, i) {
				if e.count <= 0 {
					break
				}
				if !placedContains(placed, e.video) {
					fill = append(fill, localDemand{hotspot: i, video: e.video, count: e.count})
				}
			}
		}
		slices.SortFunc(fill, func(a, b localDemand) int {
			switch {
			case a.count != b.count:
				return cmp.Compare(b.count, a.count)
			case a.hotspot != b.hotspot:
				return a.hotspot - b.hotspot
			default:
				return cmp.Compare(a.video, b.video)
			}
		})
		added := fill[:0]
		for _, ld := range fill {
			if replicas >= s.params.BPeak {
				break
			}
			if serveBudget[ld.hotspot] <= 0 || held[ld.hotspot] >= cache[ld.hotspot] {
				continue
			}
			held[ld.hotspot]++
			replicas++
			serveBudget[ld.hotspot] -= ld.count
			added = append(added, ld)
		}
		// Each row once: stage A's replicas merged with its fill.
		slices.SortFunc(added, func(a, b localDemand) int {
			return cmp.Or(a.hotspot-b.hotspot, cmp.Compare(a.video, b.video))
		})
		for i := 0; i < m; i++ {
			fill := s.ar.fill[:0]
			for len(added) > 0 && added[0].hotspot == i {
				fill, added = append(fill, added[0].video), added[1:]
			}
			s.ar.fill = fill
			placement.IDs = appendRow(placement.IDs, s.ar.placedAt(i), fill)
			placement.Off = append(placement.Off, len(placement.IDs))
		}
		return redirects, placement, unrealized, replicas, nil
	}

	// Without the global BPeak budget every state the fill walk
	// touches — cache space, serve budget, placement — is
	// per-hotspot, and the global (count desc, hotspot asc, video
	// asc) order restricted to one hotspot is (count desc, video
	// asc): the walk decomposes into independent per-hotspot fills
	// in ascending hotspot order with identical output. The delta
	// path patches exactly these rows.
	for i := 0; i < m; i++ {
		s.fillRow(t, i, cache[i], serveBudget[i], &placement)
	}
	return redirects, placement, unrealized, int64(len(placement.IDs)), nil
}

// flowPair is one positive flow f_ij of the round: its remaining budget
// and its source's λ_rem row, a span of roundArena.lam.
type flowPair struct {
	src, dst int32
	lam      lamSpan
	rem      int64
}

// lamSpan is a half-open span of roundArena.lam.
type lamSpan struct{ lo, hi int32 }

// contribution is one term of a candidate's eu sum: min(pairs[pair].rem,
// lam[pos].count).
type contribution struct{ pair, pos int32 }

// euCand is a (video, target) candidate of stage A with the eu it was
// last ranked by and its terms contribs[lo:hi], one per source of the
// target that demands the video, in ascending source order.
type euCand struct {
	eu     int64
	target int32
	video  trace.VideoID
	lo, hi int32
}

// cmpEuCand is stage A's strict total order: (eu desc, target asc,
// video asc). No two live candidates share (target, video).
func cmpEuCand(a, b euCand) int {
	switch {
	case a.eu != b.eu:
		return cmp.Compare(b.eu, a.eu)
	case a.target != b.target:
		return cmp.Compare(a.target, b.target)
	default:
		return cmp.Compare(a.video, b.video)
	}
}

// sortByEu returns the indices of cands ordered by cmpEuCand, in order
// or buf, and the other of the two as spare. stageA emits candidates in
// (target asc, video asc) order, so a stable sort on eu alone is the
// whole order: one counting pass per byte the largest eu needs (one or
// two on real demand), least significant first. Indices, not
// candidates, move between the two halves — 4 B each instead of 24.
func sortByEu(cands []euCand, order, buf []int32) (sorted, spare []int32) {
	order = slices.Grow(order[:0], len(cands))[:len(cands)]
	buf = slices.Grow(buf[:0], len(cands))[:len(cands)]
	var top int64
	for x, c := range cands {
		order[x] = int32(x)
		top = max(top, c.eu)
	}
	for shift := 0; top>>shift > 0; shift += 8 {
		var at [257]int32 // at[b+1] counts bucket b, then at[b] is where b starts
		for _, c := range cands {
			at[256-(c.eu>>shift)&255]++
		}
		for b := 0; b < 256; b++ {
			at[b+1] += at[b]
		}
		for _, x := range order {
			b := 255 - (cands[x].eu>>shift)&255 // larger digit, earlier bucket
			buf[at[b]] = x
			at[b]++
		}
		order, buf = buf, order
	}
	return order, buf
}

// placedVideo is a replica stage A placed at a flow target.
type placedVideo struct {
	hotspot int32
	video   trace.VideoID
}

// stageA is the first half of Procedure 1: it converts the
// inter-hotspot flows into per-video redirects in descending eu(v,j)
// order, placing each redirected video at its target, and returns the
// redirects and the flow it could not realise. It leaves in the arena,
// for fillRow: the replicas it placed, grouped by hotspot, and every
// flow source's remaining demand λ_rem.
//
// The greedy is the lazy one — take the candidate with the largest
// recorded eu, re-evaluate it, realise it if the value still holds,
// re-queue it with the smaller value otherwise — but every candidate is
// recorded before the first is taken and a recorded value only ever
// falls, so the initial candidates are sorted once and consumed by a
// cursor, and only re-queued ones live in a heap (DESIGN §9).
func (s *Scheduler) stageA(t *demandTable, flows map[int64]int64, cache []int) (redirects []Redirect, unrealized int64) {
	ar := s.ar
	m := len(s.world.Hotspots)

	// The positive flows sorted (target, source): a target's pairs are
	// one run, its sources (SinktoSource(j) in the paper) ascending.
	pairs := ar.pairs[:0]
	for k, f := range flows {
		if f > 0 {
			i, j := unpackPair(k, m)
			pairs = append(pairs, flowPair{src: int32(i), dst: int32(j), rem: f})
			unrealized += f
		}
	}
	slices.SortFunc(pairs, func(a, b flowPair) int {
		if a.dst != b.dst {
			return cmp.Compare(a.dst, b.dst)
		}
		return cmp.Compare(a.src, b.src)
	})

	// Every flow source copies the positive entries of its video row,
	// in order, as its mutable λ_rem row; lamOf finds it again (an empty
	// span reads as "not a source", which ranks the same).
	clear(ar.lamOf)
	lam := ar.lam[:0]
	for x := range pairs {
		p := &pairs[x]
		sp := &ar.lamOf[p.src]
		if sp.lo == sp.hi {
			sp.lo = int32(len(lam))
			for _, e := range t.videoRow(int(p.src)) {
				if e.count > 0 {
					lam = append(lam, e)
				}
			}
			sp.hi = int32(len(lam))
		}
		p.lam = *sp
	}

	// A target's candidates are the union of its sources' rows: merge
	// the video-sorted rows, one candidate per distinct video carrying
	// one contribution per row that holds it.
	cands, contribs, cur := ar.cands[:0], ar.contribs[:0], ar.cursors
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].dst == pairs[lo].dst {
			hi++
		}
		run := pairs[lo:hi]
		cur = cur[:0]
		for _, p := range run {
			cur = append(cur, p.lam.lo)
		}
		for {
			var v trace.VideoID
			found := false
			for x, p := range run {
				if cur[x] < p.lam.hi && (!found || lam[cur[x]].video < v) {
					v, found = lam[cur[x]].video, true
				}
			}
			if !found {
				break
			}
			c := euCand{target: run[0].dst, video: v, lo: int32(len(contribs))}
			for x, p := range run {
				if cur[x] < p.lam.hi && lam[cur[x]].video == v {
					contribs = append(contribs, contribution{pair: int32(lo + x), pos: cur[x]})
					c.eu += min(p.rem, lam[cur[x]].count)
					cur[x]++
				}
			}
			c.hi = int32(len(contribs))
			cands = append(cands, c)
		}
		lo = hi
	}
	order, spare := sortByEu(cands, ar.order, ar.orderBuf)

	// idx[h+1] counts the replicas placed at h while the greedy runs and
	// is prefix-summed into the row index of placed afterwards.
	idx := ar.placedIdx
	clear(idx)
	placed, stale, out := ar.placed[:0], ar.stale[:0], ar.redirects[:0]
	for next := 0; unrealized > 0 && (next < len(order) || len(stale) > 0); {
		var top euCand
		if len(stale) == 0 || next < len(order) && cmpEuCand(cands[order[next]], stale[0]) < 0 {
			top = cands[order[next]]
			next++
		} else {
			top = stale.pop()
		}
		// eu(v, j) under the current remaining flow and demand.
		var eu int64
		for _, cb := range contribs[top.lo:top.hi] {
			eu += max(0, min(pairs[cb.pair].rem, lam[cb.pos].count))
		}
		if eu <= 0 {
			continue
		}
		if eu < top.eu {
			// Stale priority: requeue with the refreshed value.
			top.eu = eu
			stale.push(top)
			continue
		}
		// Redirecting v to j requires a replica at j. Realising (v, j)
		// zeroes every one of its terms for good, so no candidate is
		// realised twice and the replica is never there already.
		j := top.target
		if int(idx[j+1]) >= cache[j] {
			continue // target cache full; this (v, j) is unrealisable
		}
		idx[j+1]++
		placed = append(placed, placedVideo{hotspot: j, video: top.video})
		for _, cb := range contribs[top.lo:top.hi] {
			p, e := &pairs[cb.pair], &lam[cb.pos]
			amt := min(p.rem, e.count)
			if amt <= 0 {
				continue
			}
			out = append(out, Redirect{From: trace.HotspotID(p.src), To: trace.HotspotID(j), Video: top.video, Count: amt})
			p.rem -= amt
			e.count -= amt
			unrealized -= amt
		}
	}

	// Group the placed replicas by hotspot, video-ascending within one.
	slices.SortFunc(placed, func(a, b placedVideo) int {
		if a.hotspot != b.hotspot {
			return cmp.Compare(a.hotspot, b.hotspot)
		}
		return cmp.Compare(a.video, b.video)
	})
	for h := 0; h < m; h++ {
		idx[h+1] += idx[h]
	}
	ar.pairs, ar.lam, ar.cands, ar.contribs, ar.cursors = pairs, lam, cands, contribs, cur
	ar.order, ar.orderBuf = order, spare
	ar.placed, ar.stale, ar.redirects = placed, stale, out
	if len(out) > 0 {
		redirects = slices.Clone(out) // the plan owns its redirects
	}
	return redirects, unrealized
}

// fillBudgets computes the per-hotspot serve budget of the greedy fill.
// Replicating a video the hotspot has no service capacity left to serve
// would add CDN push load with zero serving benefit — this is the role
// of the paper's B_peak bound on the replication loop. We budget each
// hotspot's fill by its serviceable residual demand: service capacity
// minus the inflow reserved by redirects.
func (s *Scheduler) fillBudgets(svc []int64, redirects []Redirect) []int64 {
	over := s.params.FillOverprovision
	if over <= 0 {
		over = 1
	}
	serveBudget := make([]int64, len(svc))
	for i, c := range svc {
		serveBudget[i] = int64(float64(c) * over)
	}
	for _, rd := range redirects {
		serveBudget[rd.To] -= rd.Count
	}
	return serveBudget
}

// placedAt returns the replicas the round's stage A placed at hotspot
// h, video-ascending.
func (ar *roundArena) placedAt(h int) []placedVideo {
	return ar.placed[ar.placedIdx[h]:ar.placedIdx[h+1]]
}

func placedContains(placed []placedVideo, v trace.VideoID) bool {
	_, ok := slices.BinarySearchFunc(placed, v, func(p placedVideo, v trace.VideoID) int { return cmp.Compare(p.video, v) })
	return ok
}

// fillCands returns hotspot h's remaining local demand λ_rem ranked
// (count desc, video asc): its rank row when stage A drew nothing from
// it, its λ_rem row re-ranked when it was a flow source. That row is
// video-ascending and its counts lie in [0, top], so counting passes on
// top − count rank it, in the table's buffers (valid until the next
// call). Non-positive entries trail; callers stop at the first.
func (ar *roundArena) fillCands(t *demandTable, h int) []demandEntry {
	sp := ar.lamOf[h]
	if sp.lo == sp.hi {
		return t.rankRow(h)
	}
	row := ar.lam[sp.lo:sp.hi]
	var top int64
	for _, e := range row {
		top = max(top, e.count)
	}
	return radixPasses(row, t.a, t.b, countDesc(top), uint64(top))
}

// appendRow appends one hotspot's placement row to ids: the union of
// stage A's replicas (video-ascending) and the fill's videos (distinct
// from them, in any order; sorted in place).
func appendRow(ids []int32, placed []placedVideo, fill []trace.VideoID) []int32 {
	slices.Sort(fill)
	for len(placed) > 0 && len(fill) > 0 {
		if placed[0].video < fill[0] {
			ids, placed = append(ids, int32(placed[0].video)), placed[1:]
		} else {
			ids, fill = append(ids, int32(fill[0])), fill[1:]
		}
	}
	for _, p := range placed {
		ids = append(ids, int32(p.video))
	}
	for _, v := range fill {
		ids = append(ids, int32(v))
	}
	return ids
}

// fillRow runs one hotspot's greedy local fill on top of what stage A
// placed there and appends the hotspot's placement row to out: remaining
// local demand in (count desc, video asc) order, bounded by cache space
// and the serve budget, skipping videos already placed.
func (s *Scheduler) fillRow(t *demandTable, h, cacheCap int, budget int64, out *PlacementRuns) {
	ar := s.ar
	placed := ar.placedAt(h)
	fill := ar.fill[:0]
	if used := len(placed); used < cacheCap && budget > 0 {
		for _, e := range ar.fillCands(t, h) {
			if e.count <= 0 || budget <= 0 || used >= cacheCap {
				break
			}
			if placedContains(placed, e.video) {
				continue
			}
			fill = append(fill, e.video)
			used++
			budget -= e.count
		}
	}
	ar.fill = fill
	out.IDs = appendRow(out.IDs, placed, fill)
	out.Off = append(out.Off, len(out.IDs))
}

// staleHeap is the heap of re-queued stage A candidates, ordered by
// cmpEuCand (sift-up/sift-down identical to container/heap, without its
// boxing).
type staleHeap []euCand

func (h *staleHeap) push(c euCand) {
	*h = append(*h, c)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if cmpEuCand(s[j], s[i]) >= 0 {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *staleHeap) pop() euCand {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && cmpEuCand(s[j+1], s[j]) < 0 {
			j++
		}
		if cmpEuCand(s[j], s[i]) >= 0 {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
