package core

import (
	"maps"
	"math/rand"
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
	if d.perVideo[0][5] != 3 || d.perVideo[0][7] != 4 {
		t.Errorf("PerVideo[0] = %v", d.perVideo[0])
	}
	counts := d.VideoCounts(0)
	if counts[5] != 3 || counts[7] != 4 {
		t.Errorf("VideoCounts(0) = %v", counts)
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
	if d.perVideo[0][1] != 5 || d.Totals[0] != 5 {
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
