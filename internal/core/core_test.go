package core

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/trace"
)

// lineWorld builds a world with hotspots every `spacing` km along the
// x axis, uniform service capacity and cache size.
func lineWorld(n int, spacing float64, svc int64, cache int) *trace.World {
	hotspots := make([]trace.Hotspot, n)
	for i := range hotspots {
		hotspots[i] = trace.Hotspot{
			ID:              trace.HotspotID(i),
			Location:        geo.Point{X: float64(i) * spacing, Y: 0},
			ServiceCapacity: svc,
			CacheCapacity:   cache,
		}
	}
	width := float64(n) * spacing
	if width < 1 {
		width = 1
	}
	return &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: width, MaxY: 1},
		Hotspots:      hotspots,
		NumVideos:     1000,
		CDNDistanceKm: 20,
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"theta1 negative", func(p *Params) { p.Theta1 = -1 }},
		{"theta2 < theta1", func(p *Params) { p.Theta2 = p.Theta1 - 0.1 }},
		{"zero delta", func(p *Params) { p.DeltaD = 0 }},
		{"cluster cut > 1", func(p *Params) { p.ClusterCut = 1.5 }},
		{"zero top fraction", func(p *Params) { p.TopFraction = 0 }},
		{"bad linkage", func(p *Params) { p.Linkage = cluster.Linkage(9) }},
		{"bad guide cost", func(p *Params) { p.GuideCost = GuideCostMode(9) }},
		{"negative bpeak", func(p *Params) { p.BPeak = -1 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate() succeeded, want error")
			}
		})
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, DefaultParams()); err == nil {
		t.Error("New(nil world) succeeded")
	}
	bad := DefaultParams()
	bad.DeltaD = 0
	if _, err := New(lineWorld(2, 1, 10, 5), bad); err == nil {
		t.Error("New(bad params) succeeded")
	}
	invalid := lineWorld(2, 1, 10, 5)
	invalid.NumVideos = 0
	if _, err := New(invalid, DefaultParams()); err == nil {
		t.Error("New(invalid world) succeeded")
	}
}

func TestDemandAccumulation(t *testing.T) {
	d := NewDemand(3)
	d.Add(0, 5, 2)
	d.Add(0, 5, 1)
	d.Add(0, 7, 4)
	d.Add(2, 5, 1)
	if d.NumHotspots() != 3 {
		t.Errorf("NumHotspots() = %d, want 3", d.NumHotspots())
	}
	if d.Totals[0] != 7 || d.Totals[1] != 0 || d.Totals[2] != 1 {
		t.Errorf("Totals = %v, want [7 0 1]", d.Totals)
	}
	if d.Count(0, 5) != 3 || d.Count(0, 7) != 4 {
		t.Errorf("row 0 = %v", d.row(0))
	}
	counts := d.VideoCounts(0)
	if counts[5] != 3 || counts[7] != 4 {
		t.Errorf("VideoCounts(0) = %v", counts)
	}
}

// TestDemandGrow checks that a row grown for n entries takes n Adds
// without reallocating and that growing changes no count.
func TestDemandGrow(t *testing.T) {
	d := NewDemand(2)
	d.Add(1, 3, 2)
	d.Grow(1, 600)
	d.Grow(0, 600)
	if d.Totals[1] != 2 || d.Count(1, 3) != 2 || d.Len(0) != 0 {
		t.Fatalf("growing changed the demand: totals %v, row 1 %v", d.Totals, d.row(1))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for v := range 100 {
			d.Add(0, trace.VideoID(v), 1)
			d.Add(1, trace.VideoID(v), 1)
		}
	})
	if allocs != 0 {
		t.Errorf("adding into grown rows allocates %v objects per 200 entries, want 0", allocs)
	}
	if d.Totals[0] != 600 || d.Totals[1] != 602 {
		t.Errorf("Totals = %v, want [600 602]", d.Totals)
	}
}

// TestDemandMatchesOracle drives random Add/Move/Clear/Merge sequences
// against the naive model — one count per (hotspot, video) key, a key
// existing from its first Add until Move empties it or Clear drops its
// row — and holds every reader to it after every step.
func TestDemandMatchesOracle(t *testing.T) {
	const hotspots, videos = 5, 7
	type oracle map[[2]int]int64
	check := func(t *testing.T, step int, d *Demand, o oracle) {
		t.Helper()
		for h := 0; h < hotspots; h++ {
			want := map[int]int64{}
			var total int64
			for k, n := range o {
				if k[0] == h {
					want[k[1]] = n
					total += n
				}
			}
			each := map[int]int64{}
			d.Each(h, func(v trace.VideoID, n int64) {
				if _, dup := each[int(v)]; dup {
					t.Fatalf("step %d: Each(%d) yields video %d twice", step, h, v)
				}
				each[int(v)] = n
			})
			if !maps.Equal(each, want) || !maps.Equal(d.VideoCounts(h), want) {
				t.Fatalf("step %d: hotspot %d holds Each %v, VideoCounts %v, want %v", step, h, each, d.VideoCounts(h), want)
			}
			for v := 0; v < videos; v++ {
				if got := d.Count(h, trace.VideoID(v)); got != want[v] {
					t.Fatalf("step %d: Count(%d, %d) = %d, want %d", step, h, v, got, want[v])
				}
			}
			// Top is a prefix of the ranking by count, descending, ties
			// to the smaller id, handed back id-ascending.
			var ranked []int
			for v := range want {
				ranked = append(ranked, v)
			}
			slices.SortFunc(ranked, func(a, b int) int {
				return cmp.Or(cmp.Compare(want[b], want[a]), cmp.Compare(a, b))
			})
			if d.Len(h) != len(ranked) {
				t.Fatalf("step %d: Len(%d) = %d, want %d", step, h, d.Len(h), len(ranked))
			}
			for k := -1; k <= len(ranked)+1; k++ {
				top := slices.Clone(ranked[:max(0, min(k, len(ranked)))])
				slices.Sort(top)
				var got []int
				for _, v := range d.Top([]int32{-1}, h, k)[1:] {
					got = append(got, int(v))
				}
				if !slices.Equal(got, top) {
					t.Fatalf("step %d: Top(%d, %d) = %v, want %v", step, h, k, got, top)
				}
			}
			if d.Totals[h] != total {
				t.Fatalf("step %d: Totals[%d] = %d, want Σ_v Count = %d", step, h, d.Totals[h], total)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, o := NewDemand(hotspots), oracle{}
		for step := 0; step < 300; step++ {
			h, v := rng.Intn(hotspots), rng.Intn(videos)
			switch op := rng.Intn(10); {
			case op < 5:
				n := int64(rng.Intn(4)) // 0 makes an entry too
				d.Add(trace.HotspotID(h), trace.VideoID(v), n)
				o[[2]int{h, v}] += n
			case op < 8:
				have := o[[2]int{h, v}]
				if have == 0 {
					continue
				}
				tgt, amt := rng.Intn(hotspots), 1+rng.Int63n(have)
				d.Move(h, tgt, trace.VideoID(v), amt)
				if o[[2]int{h, v}] -= amt; o[[2]int{h, v}] == 0 {
					delete(o, [2]int{h, v})
				}
				o[[2]int{tgt, v}] += amt
			case op < 9:
				d.Clear(h)
				for k := range o {
					if k[0] == h {
						delete(o, k)
					}
				}
			default:
				src := NewDemand(hotspots)
				for i := rng.Intn(8); i > 0; i-- {
					sh, sv, n := rng.Intn(hotspots), rng.Intn(videos), int64(rng.Intn(4))
					src.Add(trace.HotspotID(sh), trace.VideoID(sv), n)
					o[[2]int{sh, sv}] += n
				}
				d.Merge(src)
			}
			check(t, step, d, o)
		}
	}
}

func TestDemandClone(t *testing.T) {
	d := NewDemand(2)
	d.Add(0, 1, 5)
	c := d.Clone()
	c.Add(0, 1, 3)
	c.Add(1, 2, 1)
	if d.Count(0, 1) != 5 || d.Totals[0] != 5 {
		t.Error("Clone() shares state with the original")
	}
	if d.Totals[1] != 0 {
		t.Error("Clone() mutation leaked into original totals")
	}
}

func TestScheduleDemandSizeMismatch(t *testing.T) {
	s, err := New(lineWorld(3, 1, 10, 5), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScheduleRound(NewDemand(2), Constraints{}); err == nil {
		t.Error("ScheduleRound(wrong size) succeeded")
	}
	if _, err := s.ScheduleRound(nil, Constraints{}); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
}

func TestGuideCostModeString(t *testing.T) {
	if GuideCostAvgDistance.String() != "avg-distance" ||
		GuideCostAvgCapacity.String() != "avg-capacity" {
		t.Error("GuideCostMode.String() unexpected")
	}
	if GuideCostMode(9).String() == "" {
		t.Error("unknown GuideCostMode.String() empty")
	}
}

// setEntry sets hotspot h's entry for video v to n in place, leaving
// Totals alone: the zero and negative entries no Add sequence leaves
// behind but the round must still take.
func setEntry(d *Demand, h int, v trace.VideoID, n int64) {
	r := &d.rows[h]
	r.fold()
	if i, ok := slices.BinarySearchFunc(r.entries, v, videoOf); ok {
		r.entries[i].count = n
	} else {
		r.entries = slices.Insert(r.entries, i, videoCount{v, n})
	}
	r.folded = len(r.entries)
}

// rowMap returns hotspot h's row as a map.
func rowMap(d *Demand, h int) map[trace.VideoID]int64 {
	out := make(map[trace.VideoID]int64)
	d.Each(h, func(v trace.VideoID, n int64) { out[v] = n })
	return out
}

// FuzzDemandOps runs Add/Merge/Move/Clear/Fold sequences against a map
// model and holds Each, Count, Totals and VideoCounts to it after every
// step, on folded and unfolded rows alike; Each must run
// video-ascending.
func FuzzDemandOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 40, 41, 80, 120, 160, 200, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const hotspots, videos = 3, 6
		d, model := NewDemand(hotspots), map[[2]int]int64{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			h, v, n := arg%hotspots, trace.VideoID(arg/hotspots%videos), int64(arg%4)-1
			switch op % 6 {
			case 0, 1:
				d.Add(trace.HotspotID(h), v, n)
				model[[2]int{h, int(v)}] += n
			case 2:
				have, ok := model[[2]int{h, int(v)}]
				if !ok {
					continue
				}
				amt := have
				if op%2 == 0 && have > 1 {
					amt = have - 1
				}
				if amt == 0 {
					amt = 1
				}
				tgt := (h + 1 + int(op/6)%2) % hotspots
				d.Move(h, tgt, v, amt)
				if model[[2]int{h, int(v)}] -= amt; model[[2]int{h, int(v)}] == 0 {
					delete(model, [2]int{h, int(v)})
				}
				model[[2]int{tgt, int(v)}] += amt
			case 3:
				d.Clear(h)
				for k := range model {
					if k[0] == h {
						delete(model, k)
					}
				}
			case 4:
				src := NewDemand(hotspots)
				for k := 0; k < arg%5; k++ {
					sh, sv := (arg+k)%hotspots, trace.VideoID((arg*7+k)%videos)
					src.Add(trace.HotspotID(sh), sv, 1)
					model[[2]int{sh, int(sv)}]++
				}
				if op%2 == 0 {
					src.Fold()
				}
				d.Merge(src)
			default:
				d.Fold()
			}
			for h := 0; h < hotspots; h++ {
				want, total := map[int]int64{}, int64(0)
				for k, n := range model {
					if k[0] == h {
						want[k[1]], total = n, total+n
					}
				}
				each, last := map[int]int64{}, trace.VideoID(-1)
				d.Each(h, func(v trace.VideoID, n int64) {
					if v <= last {
						t.Fatalf("step %d: Each(%d) not video-ascending at %d", i, h, v)
					}
					last, each[int(v)] = v, n
				})
				if !maps.Equal(each, want) || !maps.Equal(d.VideoCounts(h), want) || d.Totals[h] != total {
					t.Fatalf("step %d: hotspot %d holds %v (total %d), want %v (total %d)", i, h, each, d.Totals[h], want, total)
				}
				for v := 0; v < videos; v++ {
					if got := d.Count(h, trace.VideoID(v)); got != want[v] {
						t.Fatalf("step %d: Count(%d, %d) = %d, want %d", i, h, v, got, want[v])
					}
				}
			}
		}
	})
}

// TestAggregateDemandMatchesAdd holds the counting-pass constructor to
// one Add per request and a Fold, and checks that a later Add to a row
// leaves its neighbour's entries alone.
func TestAggregateDemandMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		hotspots := 1 + rng.Intn(6)
		reqs := make([]trace.Request, rng.Intn(200))
		nearest := make([]int, len(reqs))
		want := NewDemand(hotspots)
		for r := range reqs {
			reqs[r].Video = trace.VideoID(rng.Intn(1 + trial))
			nearest[r] = rng.Intn(hotspots)
			want.Add(trace.HotspotID(nearest[r]), reqs[r].Video, 1)
		}
		want.Fold()
		got := AggregateDemand(hotspots, nearest, reqs)
		for h := 0; h < hotspots; h++ {
			if !slices.Equal(got.row(h), want.row(h)) || got.Totals[h] != want.Totals[h] || got.rows[h].folded != len(got.rows[h].entries) {
				t.Fatalf("trial %d hotspot %d: %v (total %d), want %v (total %d)", trial, h, got.row(h), got.Totals[h], want.row(h), want.Totals[h])
			}
		}
		if hotspots > 1 {
			before := slices.Clone(got.row(1))
			got.Add(0, 999, 1)
			if !slices.Equal(got.row(1), before) {
				t.Fatalf("trial %d: Add to row 0 changed row 1", trial)
			}
		}
	}
}
