package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// referenceClusters is the cluster phase on float64, the way it ran
// before the round moved onto rank spans: each hotspot's signature is
// TopFraction of its demand map, every pair's Jd is the float
// 1 − JaccardRuns of the sorted signatures (the per-pair definition the
// old float fill was held to bit for bit), and the float
// nearest-neighbour chain — cluster's referenceAgglomerate, which test
// code of another package cannot call — runs on them. The partition is
// every merge at or under cut, numbered like Dendrogram.Cut: clusters
// by smallest hotspot.
func referenceClusters(t *testing.T, d *Demand, params Params) []int {
	t.Helper()
	m := d.NumHotspots()
	sigs := make([][]int32, m)
	for h := range sigs {
		set, err := similarity.TopFraction(d.VideoCounts(h), params.TopFraction)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range set.Sorted() {
			sigs[h] = append(sigs[h], int32(v))
		}
	}
	dist := make([]float64, m*m)
	for i := range sigs {
		for j := i + 1; j < m; j++ {
			v := 1 - similarity.JaccardRuns(sigs[i], sigs[j])
			dist[i*m+j], dist[j*m+i] = v, v
		}
	}

	type merge struct {
		a, b   int // leaves standing for the two clusters
		height float64
	}
	var merges []merge
	active := make([]bool, m)
	for i := range active {
		active[i] = true
	}
	chain := make([]int, 0, m)
	for remaining := m; remaining > 1; {
		if len(chain) == 0 {
			chain = append(chain, slices.Index(active, true))
		}
		top := chain[len(chain)-1]
		prev := -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		nn, best := -1, math.Inf(1)
		for s := 0; s < m; s++ {
			if !active[s] || s == top {
				continue
			}
			if v := dist[top*m+s]; v < best || (v == best && s == prev) {
				best, nn = v, s
			}
		}
		if nn != prev || prev < 0 {
			chain = append(chain, nn)
			continue
		}
		chain = chain[:len(chain)-2]
		a, b := prev, top
		for s := 0; s < m; s++ {
			if active[s] && s != a && s != b {
				v := math.Max(dist[a*m+s], dist[b*m+s])
				dist[a*m+s], dist[s*m+a] = v, v
			}
		}
		merges = append(merges, merge{a, b, best})
		active[b] = false
		remaining--
	}

	// Complete linkage is monotone, so the merges at or under the cut
	// are whole subtrees: joining their slots gives Cut's groups.
	root := make([]int, m)
	for i := range root {
		root[i] = i
	}
	find := func(x int) int {
		for root[x] != x {
			x = root[x]
		}
		return x
	}
	for _, mg := range merges {
		if mg.height <= params.ClusterCut {
			root[find(mg.b)] = find(mg.a)
		}
	}
	clusterOf := make([]int, m)
	label := make(map[int]int)
	for h := range clusterOf {
		r := find(h)
		if _, ok := label[r]; !ok {
			label[r] = len(label)
		}
		clusterOf[h] = label[r]
	}
	return clusterOf
}

// TestContentClustersMatchFloatPathAtBenchShape holds the round's
// partition to referenceClusters on the serving benchmark's worlds —
// its trace generator configuration at 310 hotspots (16 slots, as
// edge_*) and 1,240 (10 slots, as city_sched), seeds 1 and 2 — on
// every slot, through one scheduler, so the arena's rank span is
// reused across slots, and stays uint16.
func TestContentClustersMatchFloatPathAtBenchShape(t *testing.T) {
	for _, wl := range []struct{ fleet, slotRequests, slots int }{{1, 25000, 16}, {4, 50000, 10}} {
		for _, seed := range []int64{1, 2} {
			if testing.Short() && wl.fleet > 1 {
				continue
			}
			world, tr := benchShapedTrace(t, wl.fleet, wl.slotRequests, wl.slots, seed)
			name := fmt.Sprintf("hotspots=%d/seed=%d", len(world.Hotspots), seed)
			index, err := world.Index()
			if err != nil {
				t.Fatal(err)
			}
			params := DefaultParams()
			s, err := New(world, params)
			if err != nil {
				t.Fatal(err)
			}
			longest, levels := 0, 0
			for slot, reqs := range tr.BySlot() {
				nearest := make([]int, len(reqs))
				for r, req := range reqs {
					h, _, ok := index.Nearest(req.Location)
					if !ok {
						t.Fatalf("%s: request %d has no hotspot", name, req.ID)
					}
					nearest[r] = h
				}
				d := AggregateDemand(len(world.Hotspots), nearest, reqs)
				s.ar.table.built = false
				clusterOf, n, err := s.contentClusters(d)
				if err != nil {
					t.Fatalf("%s slot %d: %v", name, slot, err)
				}
				want := referenceClusters(t, d, params)
				if !slices.Equal(clusterOf, want) || n != slices.Max(want)+1 {
					t.Fatalf("%s slot %d: %d clusters, the float path %d; first difference at hotspot %d",
						name, slot, n, slices.Max(want)+1, firstDiff(clusterOf, want))
				}

				for h := range world.Hotspots {
					longest = max(longest, similarity.TopCount(d.Len(h), params.TopFraction))
				}
				levels = max(levels, len(s.ar.span.Levels))
				if s.ar.span.Wide != nil {
					t.Fatalf("%s slot %d: took the uint32 span with %d levels", name, slot, len(s.ar.span.Levels))
				}
			}
			t.Logf("%s: %d slots, longest signature %d videos, at most %d levels", name, tr.Slots, longest, levels)
		}
	}
}

// TestContentClustersWideRanks drives one scheduler through a round
// of short signatures, a round whose Jd matrix takes more than 65,536
// distinct distances — 450 hotspots, each demanding 1 to 1,500 of
// 3,000 videos, with TopFraction 1 so a signature is the whole demand —
// and the short round again, and holds every partition to the float
// path: the first round leaves the uint16 span alone, the wide one the
// uint32 span alone (the uint16 one released), and the span stays wide
// after.
func TestContentClustersWideRanks(t *testing.T) {
	const m = 450
	rng := rand.New(rand.NewSource(5))
	demand := func(distinct func() int, pool int) *Demand {
		d := NewDemand(m)
		for h := 0; h < m; h++ {
			for _, v := range rng.Perm(pool)[:distinct()] {
				d.Add(trace.HotspotID(h), trace.VideoID(v), int64(1+rng.Intn(20)))
			}
		}
		d.Fold()
		return d
	}
	short := demand(func() int { return 20 }, 40)
	wide := demand(func() int { return 1 + rng.Intn(1500) }, 3000)
	params := DefaultParams()
	params.TopFraction = 1
	s, err := New(lineWorld(m, 0.3, 5, 8), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []struct {
		name   string
		d      *Demand
		narrow bool
	}{{"short", short, true}, {"wide", wide, false}, {"short after wide", short, false}} {
		s.ar.table.built = false
		clusterOf, n, err := s.contentClusters(round.d)
		if err != nil {
			t.Fatal(err)
		}
		sp := &s.ar.span
		if narrow := sp.Wide == nil; narrow != round.narrow || (sp.Narrow == nil) == round.narrow {
			t.Fatalf("%s: %d levels left %d uint16 cells and %d uint32 ones", round.name, len(sp.Levels), len(sp.Narrow), len(sp.Wide))
		}
		if want := referenceClusters(t, round.d, params); !slices.Equal(clusterOf, want) {
			t.Fatalf("%s: the rank span's partition differs from the float path's at hotspot %d", round.name, firstDiff(clusterOf, want))
		}
		if n < 2 || n >= m {
			t.Fatalf("%s: %d clusters of %d hotspots: the case no longer tells a partition apart", round.name, n, m)
		}
		t.Logf("%s: %d levels, %d clusters", round.name, len(sp.Levels), n)
	}
}

// benchShapedTrace generates a world and trace with the serving
// benchmark's generator configuration: the paper's deployment scaled by
// fleet, uniform slots, and capacities at the paper's 0.90 load.
func benchShapedTrace(tb testing.TB, fleet, slotRequests, slots int, seed int64) (*trace.World, *trace.Trace) {
	tb.Helper()
	const paperLoad = 212472.0 / (310 * 760)
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	side := 1.0
	for side*side < float64(fleet) {
		side++
	}
	cfg.Bounds = geo.Rect{MaxX: cfg.Bounds.MaxX * side, MaxY: cfg.Bounds.MaxY * side}
	cfg.NumHotspots *= fleet
	cfg.NumRegions *= fleet
	cfg.NumUsers *= fleet
	cfg.Slots = slots
	cfg.NumRequests = slots * slotRequests
	cfg.SlotNoise = 1
	perHotspot := float64(slotRequests) / (paperLoad * float64(cfg.NumHotspots))
	cfg.ServiceCapacityFrac = perHotspot / float64(cfg.NumVideos)
	cfg.CacheCapacityFrac = cfg.ServiceCapacityFrac * 450.0 / 760
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return world, tr
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
