package core

import (
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
	if d.PerVideo[0][5] != 3 || d.PerVideo[0][7] != 4 {
		t.Errorf("PerVideo[0] = %v", d.PerVideo[0])
	}
	counts := d.VideoCounts(0)
	if counts[5] != 3 || counts[7] != 4 {
		t.Errorf("VideoCounts(0) = %v", counts)
	}
}

func TestDemandClone(t *testing.T) {
	d := NewDemand(2)
	d.Add(0, 1, 5)
	c := d.Clone()
	c.Add(0, 1, 3)
	c.Add(1, 2, 1)
	if d.PerVideo[0][1] != 5 || d.Totals[0] != 5 {
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
	if _, err := s.Schedule(NewDemand(2)); err == nil {
		t.Error("Schedule(wrong size) succeeded")
	}
	if _, err := s.Schedule(nil); err == nil {
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
