package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// The map-based Procedure 1 as it stood before the round demand table
// (PR 23), moved here verbatim — receivers and names apart — as the
// oracle TestReplicateMatchesReference holds the table-based stage A
// and fill to. fillBudgets stays in production code; both call it.

// referenceReplicate implements Procedure 1 (ContentAggregationReplication): it
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
func (s *Scheduler) referenceReplicate(d *Demand, flows map[int64]int64, svc []int64, cache []int) (
	redirects []Redirect,
	placement []similarity.Set,
	unrealized int64,
	replicas int64,
	err error,
) {
	m := len(s.world.Hotspots)
	placement = make([]similarity.Set, m)
	for h := range placement {
		placement[h] = make(similarity.Set)
	}
	cacheUsed := make([]int, m)
	lv := newRefLambdaView(d, m)

	redirects, unrealized, replicas = s.referenceRealizeFlows(flows, cache, lv, placement, cacheUsed)
	serveBudget := s.fillBudgets(svc, redirects)

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
		for i := 0; i < m; i++ {
			if cacheUsed[i] >= cache[i] {
				continue
			}
			for v, n := range lv.row(i) {
				if n <= 0 || placement[i].Contains(int(v)) {
					continue
				}
				fill = append(fill, localDemand{hotspot: i, video: v, count: n})
			}
		}
		slices.SortFunc(fill, func(a, b localDemand) int {
			switch {
			case a.count != b.count:
				if a.count > b.count {
					return -1
				}
				return 1
			case a.hotspot != b.hotspot:
				return a.hotspot - b.hotspot
			default:
				return int(a.video) - int(b.video)
			}
		})
		for _, ld := range fill {
			if replicas >= s.params.BPeak {
				break
			}
			if serveBudget[ld.hotspot] <= 0 {
				continue
			}
			if cacheUsed[ld.hotspot] >= cache[ld.hotspot] {
				continue
			}
			if placement[ld.hotspot].Contains(int(ld.video)) {
				continue
			}
			placement[ld.hotspot].Add(int(ld.video))
			cacheUsed[ld.hotspot]++
			replicas++
			serveBudget[ld.hotspot] -= ld.count
		}
	} else {
		// Without the global BPeak budget every state the fill walk
		// touches — cache space, serve budget, placement — is
		// per-hotspot, and the global (count desc, hotspot asc, video
		// asc) order restricted to one hotspot is (count desc, video
		// asc): the walk decomposes into independent per-hotspot fills
		// in ascending hotspot order with identical output. The delta
		// path patches exactly these rows.
		var scratch []refFillCand
		for i := 0; i < m; i++ {
			var added int64
			added, scratch = s.referenceFillHotspot(lv.row(i), nil, placement[i], cacheUsed[i], cache[i], serveBudget[i], scratch)
			replicas += added
		}
	}

	if unrealized < 0 {
		return nil, nil, 0, 0, fmt.Errorf("core: negative unrealized flow %d (bug)", unrealized)
	}
	return redirects, placement, unrealized, replicas, nil
}

// refLambdaView is the remaining-local-demand vector λ_rem of Procedure 1,
// materialised lazily: a hotspot's row is copied (filtered to n > 0)
// only when stage A mutates it; every other hotspot reads the raw
// demand map with non-positive entries filtered at the use sites —
// exactly the set the eager copy would have held. On typical rounds
// only the flow sources (a few dozen of thousands of hotspots) ever
// materialise. The view never mutates the underlying Demand.
type refLambdaView struct {
	mod []map[trace.VideoID]int64
	// base[h] is hotspot h's demand row as a map, the form the demand
	// held when this reference was written.
	base []map[trace.VideoID]int64
}

func newRefLambdaView(d *Demand, m int) *refLambdaView {
	lv := &refLambdaView{mod: make([]map[trace.VideoID]int64, m), base: make([]map[trace.VideoID]int64, m)}
	for h := range lv.base {
		lv.base[h] = rowMap(d, h)
	}
	return lv
}

// materialize returns hotspot h's mutable remaining-demand row, copying
// the filtered (n > 0) demand on first use.
func (lv *refLambdaView) materialize(h int) map[trace.VideoID]int64 {
	if lv.mod[h] == nil {
		row := make(map[trace.VideoID]int64, len(lv.base[h]))
		for v, n := range lv.base[h] {
			if n > 0 {
				row[v] = n
			}
		}
		lv.mod[h] = row
	}
	return lv.mod[h]
}

// at returns λ_rem for (h, v). Callers treat non-positive values as
// absent, which makes the raw-row read equivalent to the filtered copy.
func (lv *refLambdaView) at(h int, v trace.VideoID) int64 {
	if row := lv.mod[h]; row != nil {
		return row[v]
	}
	return lv.base[h][v]
}

// row returns hotspot h's remaining-demand row for read-only iteration:
// the materialised row when stage A touched h, the raw demand map
// otherwise (iterate with an n > 0 guard).
func (lv *refLambdaView) row(h int) map[trace.VideoID]int64 {
	if lv.mod[h] != nil {
		return lv.mod[h]
	}
	return lv.base[h]
}

// realizeFlows is stage A of Procedure 1: it converts the inter-hotspot
// flows into per-video redirects in descending eu(v,j) order, placing
// each redirected video at its target. It mutates lv (source rows),
// placement, and cacheUsed (target rows) and returns the redirects, the
// flow it could not realise, and the replicas it placed.
func (s *Scheduler) referenceRealizeFlows(
	flows map[int64]int64,
	cache []int,
	lv *refLambdaView,
	placement []similarity.Set,
	cacheUsed []int,
) (redirects []Redirect, unrealized int64, replicas int64) {
	m := len(s.world.Hotspots)

	// Remaining flow budget per (i, j) pair.
	remaining := make(map[int64]int64, len(flows))
	var totalFlow int64
	for k, f := range flows {
		if f > 0 {
			remaining[k] = f
			totalFlow += f
		}
	}

	// Per-target source lists (SinktoSource(j) in the paper).
	sourcesOf := make(map[int][]int)
	for k := range remaining {
		i, j := unpackPair(k, m)
		sourcesOf[j] = append(sourcesOf[j], i)
	}
	for j := range sourcesOf {
		sort.Ints(sourcesOf[j])
	}

	// eu(v, j) under the current remaining flow and demand.
	euOf := func(v trace.VideoID, j int) int64 {
		var sum int64
		for _, i := range sourcesOf[j] {
			rem := remaining[pairKey(i, j, m)]
			if rem <= 0 {
				continue
			}
			lam := lv.at(i, v)
			if lam <= 0 {
				continue
			}
			if lam < rem {
				sum += lam
			} else {
				sum += rem
			}
		}
		return sum
	}

	// Seed the lazy max-heap over (v, j) with initial eu values. Every
	// flow source materialises its λ_rem row here, before any read.
	var h refEuHeap
	for j, srcs := range sourcesOf {
		seen := make(map[trace.VideoID]struct{})
		for _, i := range srcs {
			for v := range lv.materialize(i) {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
				if eu := euOf(v, j); eu > 0 {
					h.push(refEuEntry{video: v, target: j, eu: eu})
				}
			}
		}
	}

	remainingTotal := totalFlow
	for len(h) > 0 && remainingTotal > 0 {
		top := h.pop()
		cur := euOf(top.video, top.target)
		if cur <= 0 {
			continue
		}
		if cur < top.eu {
			// Stale priority: requeue with the refreshed value.
			h.push(refEuEntry{video: top.video, target: top.target, eu: cur})
			continue
		}
		j := top.target
		v := top.video
		// Redirecting v to j requires a replica at j.
		if !placement[j].Contains(int(v)) {
			if cacheUsed[j] >= cache[j] {
				continue // target cache full; this (v, j) is unrealisable
			}
			placement[j].Add(int(v))
			cacheUsed[j]++
			replicas++
		}
		for _, i := range sourcesOf[j] {
			key := pairKey(i, j, m)
			rem := remaining[key]
			if rem <= 0 {
				continue
			}
			row := lv.mod[i] // materialised at seeding
			lam := row[v]
			if lam <= 0 {
				continue
			}
			amt := lam
			if rem < amt {
				amt = rem
			}
			redirects = append(redirects, Redirect{
				From:  trace.HotspotID(i),
				To:    trace.HotspotID(j),
				Video: v,
				Count: amt,
			})
			remaining[key] = rem - amt
			if lam == amt {
				delete(row, v)
			} else {
				row[v] = lam - amt
			}
			remainingTotal -= amt
		}
	}
	return redirects, remainingTotal, replicas
}

// refFillCand is one candidate of a single hotspot's greedy fill.
type refFillCand struct {
	video trace.VideoID
	count int64
}

// fillHotspot runs one hotspot's greedy local fill: remaining local
// demand in (count desc, video asc) order, bounded by cache space and
// the serve budget. base is the hotspot's demand row; minus, when
// non-nil, holds per-video amounts already redirected away (λ − minus
// is the remaining demand — the delta path reconstructs λ_rem this way
// from the retained redirect footprint). Non-positive remaining demand
// and videos already placed are skipped. Returns the replicas added and
// the (possibly grown) candidate scratch for reuse.
func (s *Scheduler) referenceFillHotspot(
	base map[trace.VideoID]int64,
	minus map[trace.VideoID]int64,
	placement similarity.Set,
	used, cacheCap int,
	budget int64,
	scratch []refFillCand,
) (int64, []refFillCand) {
	if used >= cacheCap || budget <= 0 {
		return 0, scratch
	}
	cands := scratch[:0]
	for v, n := range base {
		if minus != nil {
			n -= minus[v]
		}
		if n <= 0 || placement.Contains(int(v)) {
			continue
		}
		cands = append(cands, refFillCand{video: v, count: n})
	}
	slices.SortFunc(cands, func(a, b refFillCand) int {
		switch {
		case a.count != b.count:
			if a.count > b.count {
				return -1
			}
			return 1
		default:
			return int(a.video) - int(b.video)
		}
	})
	var added int64
	for _, c := range cands {
		if budget <= 0 || used >= cacheCap {
			break
		}
		placement.Add(int(c.video))
		used++
		added++
		budget -= c.count
	}
	return added, cands
}

// refEuEntry is a (video, target) candidate keyed by its content-placement
// efficiency index.
type refEuEntry struct {
	video  trace.VideoID
	target int
	eu     int64
}

// refEuHeap is a max-heap over refEuEntry with deterministic tie-breaking.
// Hand-rolled (sift-up/sift-down identical to container/heap) because
// the boxed interface{} Push/Pop of container/heap dominated the
// round's allocation profile: one box per operation on a heap that sees
// every (video, target) candidate of the round. The (eu, target, video)
// order is strict and total, so pop order is deterministic.
type refEuHeap []refEuEntry

func (h refEuHeap) less(a, b int) bool {
	if h[a].eu != h[b].eu {
		return h[a].eu > h[b].eu
	}
	if h[a].target != h[b].target {
		return h[a].target < h[b].target
	}
	return h[a].video < h[b].video
}

func (h *refEuHeap) push(e refEuEntry) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *refEuHeap) pop() refEuEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift the new root down over s[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// replicateCase is one input of the Procedure 1 differential.
type replicateCase struct {
	name   string
	world  *trace.World
	params Params
	d      *Demand
	flows  map[int64]int64
	svc    []int64
	cache  []int
}

// tieHeavyCase draws a small fleet where equal eu and equal counts are
// the rule: counts and flows are 1..3 over a dozen videos, a hotspot may
// be a source of several targets, a target of several sources and both
// at once, caches hold 0, 1 or 2 videos (the "target cache full"
// branch), some rows carry zero and negative entries (the signature's
// support counts them, λ_rem and the fill skip them) and some flow
// sources demand nothing at all (their flow stays unrealised). Every
// seventh trial multiplies counts, flows and capacities by 300 or by
// 70,000, so that eu needs two and three bytes.
func tieHeavyCase(rng *rand.Rand, trial int) replicateCase {
	m := 4 + rng.Intn(14)
	scale := int64(1)
	if trial%7 == 6 {
		scale = []int64{300, 70000}[trial%2]
	}
	world := lineWorld(m, 0.3, 1, 1)
	params := DefaultParams()
	params.BPeak = []int64{0, 0, 3, 1000}[trial%4]
	params.FillOverprovision = []float64{0, 1, 2.5}[trial%3]
	d := NewDemand(m)
	svc := make([]int64, m)
	cache := make([]int, m)
	for h := 0; h < m; h++ {
		svc[h] = scale * int64(rng.Intn(9))
		cache[h] = rng.Intn(3)
		if trial%5 == 0 {
			cache[h] = 2 + rng.Intn(30)
		}
		if rng.Intn(6) == 0 {
			continue // no demand at all
		}
		for k := rng.Intn(10); k > 0; k-- {
			d.Add(trace.HotspotID(h), trace.VideoID(rng.Intn(12)), scale*int64(1+rng.Intn(3)))
		}
		if rng.Intn(3) == 0 {
			setEntry(d, h, trace.VideoID(20+rng.Intn(4)), 0)
			setEntry(d, h, trace.VideoID(30+rng.Intn(4)), -int64(rng.Intn(2)))
		}
	}
	flows := make(map[int64]int64)
	for k := rng.Intn(3 * m); k > 0; k-- {
		i, j := rng.Intn(m), rng.Intn(m)
		if i != j {
			flows[pairKey(i, j, m)] = scale * (int64(rng.Intn(5)) - 1) // −1 and 0 are not flows
		}
	}
	return replicateCase{fmt.Sprintf("tie-heavy-%d", trial), world, params, d, flows, svc, cache}
}

// sweptCase takes the flows of a real θ sweep on a city-shaped fleet and
// replays Procedure 1 on them under nominal or degraded capacities.
func sweptCase(t *testing.T, seed int64, degraded bool, bpeak int64) replicateCase {
	t.Helper()
	world := lineWorld(160, 0.15, 30, 12)
	params := DefaultParams()
	params.BPeak = bpeak
	d := randomDemand(world, 7000, 900, seed)
	s, err := New(world, params)
	if err != nil {
		t.Fatal(err)
	}
	var cons Constraints
	if degraded {
		rng := rand.New(rand.NewSource(seed))
		cons.Service = world.ServiceCapacities()
		cons.Cache = world.CacheCapacities()
		for h := range cons.Service {
			switch rng.Intn(5) {
			case 0:
				cons.Service[h], cons.Cache[h] = 0, 0 // churned out
			case 1:
				cons.Service[h] /= 2
				cons.Cache[h] = rng.Intn(3)
			}
		}
	}
	plan, err := s.ScheduleRound(d, cons)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.MovedFlow == 0 || len(plan.Redirects) == 0 {
		t.Fatalf("seed %d: the sweep moved nothing: %+v", seed, plan.Stats)
	}
	svc, cache, err := cons.Resolve(world, d)
	if err != nil {
		t.Fatal(err)
	}
	flows := maps.Clone(s.ar.flows) // the arena keeps the round's flows until the next one
	name := fmt.Sprintf("swept-seed%d-degraded=%v-bpeak%d", seed, degraded, bpeak)
	return replicateCase{name, world, params, d, flows, svc, cache}
}

// TestReplicateMatchesReference holds Procedure 1 on the round's flat
// tables — one sorted candidate array consumed by a cursor, re-queued
// candidates in a side heap, the fill walking table rows in place — to
// the map-and-lazy-heap implementation it replaced: the same redirects
// in the same order, the same placement, unrealised flow and replica
// count, on one long-lived scheduler so that no case may see another's
// arena.
func TestReplicateMatchesReference(t *testing.T) {
	var cases []replicateCase
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			sweptCase(t, seed, false, 0),
			sweptCase(t, seed, true, 0),
			sweptCase(t, seed, false, []int64{5, 400, 100000}[seed-1]))
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		cases = append(cases, tieHeavyCase(rng, trial))
	}
	idle := tieHeavyCase(rng, 0)
	idle.name, idle.flows = "max-flow-0-fast-path", map[int64]int64{}
	cases = append(cases, idle)

	schedulers := make(map[*trace.World]*Scheduler)
	var redirects, binding, unrealised int
	for _, c := range cases {
		s := schedulers[c.world]
		if s == nil || s.params != c.params {
			var err error
			if s, err = New(c.world, c.params); err != nil {
				t.Fatal(err)
			}
			schedulers[c.world] = s
		}
		wantRd, wantPl, wantUn, wantRep, err := s.referenceReplicate(c.d, c.flows, c.svc, c.cache)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		s.ar.table.built = false // what ScheduleRound does on entry
		gotRd, gotPl, gotUn, gotRep, err := s.replicate(c.d, c.flows, c.svc, c.cache)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(gotRd, wantRd) {
			t.Fatalf("%s: redirects diverge from the reference\n got %v\nwant %v", c.name, gotRd, wantRd)
		}
		if want := placementOf(wantPl); !gotPl.Equal(&want) {
			t.Fatalf("%s: placement diverges from the reference\n got %v\nwant %v", c.name, gotPl, wantPl)
		}
		if gotUn != wantUn || gotRep != wantRep {
			t.Fatalf("%s: unrealized %d replicas %d, reference %d and %d", c.name, gotUn, gotRep, wantUn, wantRep)
		}
		redirects += len(wantRd)
		if wantUn > 0 {
			unrealised++
		}
		if c.params.BPeak > 0 && wantRep == c.params.BPeak {
			binding++
		}
	}
	if redirects < 1000 || unrealised < 50 || binding < 20 {
		t.Errorf("families too tame: %d redirects, %d cases with unrealised flow, %d with a binding BPeak", redirects, unrealised, binding)
	}
}

// referenceDemandTable is demandTable as it stood before the counting
// passes: a walk of each row's map and one comparison sort per row,
// byCountThenVideo. It returns the row offsets and the rank rows.
func referenceDemandTable(d *Demand) (rowAt []int32, cells []demandEntry) {
	rowAt = append(rowAt, 0)
	for h := range d.rows {
		lo := len(cells)
		for v, n := range rowMap(d, h) {
			cells = append(cells, demandEntry{video: v, hotspot: int32(h), count: n})
		}
		slices.SortFunc(cells[lo:], byCountThenVideo)
		rowAt = append(rowAt, int32(len(cells)))
	}
	return rowAt, cells
}

// TestDemandTableMatchesReference holds both views of the counting-built
// table to the comparison-sorted one: every rank row equal to the
// reference's row, every video row equal to that row sorted by video.
// The demands cover what the passes size themselves by — zero and
// negative counts, counts beyond ±2³² up to the int64 extremes, video
// ids from MinInt32 through 0 to MaxInt32 — plus empty and one-entry
// rows and a one-hotspot world, on long-lived schedulers so that no
// case may see another's arena.
func TestDemandTableMatchesReference(t *testing.T) {
	type tableCase struct {
		name string
		d    *Demand
	}
	set := setEntry
	var cases []tableCase
	for seed := int64(1); seed <= 3; seed++ {
		world := lineWorld(160, 0.15, 30, 12)
		cases = append(cases, tableCase{fmt.Sprintf("random-seed%d", seed), randomDemand(world, 7000, 900, seed)})
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		c := tieHeavyCase(rng, trial)
		cases = append(cases, tableCase{c.name, c.d})
	}
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(12)
		if trial%5 == 0 {
			m = 1 // a one-hotspot world
		}
		d := NewDemand(m)
		for h := 0; h < m; h++ {
			switch rng.Intn(4) {
			case 0: // an empty row
				continue
			case 1: // a one-entry row
				set(d, h, trace.VideoID(rng.Int31()), rng.Int63n(5)-2)
				continue
			}
			for k := 1 + rng.Intn(30); k > 0; k-- {
				v := trace.VideoID(rng.Intn(50))
				switch rng.Intn(6) {
				case 0:
					v = []trace.VideoID{0, math.MaxInt32, math.MinInt32, -1}[rng.Intn(4)]
				case 1:
					v = trace.VideoID(rng.Int31() - rng.Int31())
				}
				n := int64(rng.Intn(4)) - 1
				switch rng.Intn(5) {
				case 0:
					n = []int64{1 << 32, -1 << 32, 1<<32 + 1, 3 << 40, -5 << 40, math.MaxInt64, math.MinInt64}[rng.Intn(7)]
				case 1:
					n = rng.Int63() - rng.Int63()
				}
				set(d, h, v, n)
			}
		}
		cases = append(cases, tableCase{fmt.Sprintf("extremes-%d", trial), d})
	}
	cases = append(cases, tableCase{"all-empty", NewDemand(5)}, tableCase{"one-hotspot-empty", NewDemand(1)})

	schedulers := make(map[int]*Scheduler)
	for _, c := range cases {
		m := c.d.NumHotspots()
		s := schedulers[m]
		if s == nil {
			var err error
			if s, err = New(lineWorld(m, 0.3, 5, 8), DefaultParams()); err != nil {
				t.Fatal(err)
			}
			schedulers[m] = s
		}
		wantAt, want := referenceDemandTable(c.d)
		s.ar.table.built = false // what ScheduleRound does on entry
		tb := s.demandTable(c.d)
		if !slices.Equal(tb.rowAt, wantAt) {
			t.Fatalf("%s: row offsets %v, reference %v", c.name, tb.rowAt, wantAt)
		}
		for h := 0; h < m; h++ {
			wantRank := want[wantAt[h]:wantAt[h+1]]
			if got := tb.rankRow(h); !slices.Equal(got, wantRank) {
				t.Fatalf("%s: rank row %d\n got %v\nwant %v", c.name, h, got, wantRank)
			}
			wantVideo := slices.Clone(wantRank)
			slices.SortFunc(wantVideo, func(a, b demandEntry) int { return cmp.Compare(a.video, b.video) })
			if got := tb.videoRow(h); !slices.Equal(got, wantVideo) {
				t.Fatalf("%s: video row %d\n got %v\nwant %v", c.name, h, got, wantVideo)
			}
		}
	}
}

// placementOf lays per-hotspot sets out as placement runs, the form
// the reference implementations' set placements are compared in.
func placementOf(sets []similarity.Set) PlacementRuns {
	out := PlacementRuns{Off: []int{0}}
	for _, set := range sets {
		for _, v := range set.Sorted() {
			out.IDs = append(out.IDs, int32(v))
		}
		out.Off = append(out.Off, len(out.IDs))
	}
	return out
}
