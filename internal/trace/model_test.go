package trace

import (
	"testing"

	"repro/internal/geo"
)

func TestWorldValidate(t *testing.T) {
	valid := testWorld()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid world rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*World)
	}{
		{"bad bounds", func(w *World) { w.Bounds = geo.Rect{MinX: 1, MaxX: 0} }},
		{"no videos", func(w *World) { w.NumVideos = 0 }},
		{"no cdn distance", func(w *World) { w.CDNDistanceKm = 0 }},
		{"no hotspots", func(w *World) { w.Hotspots = nil }},
		{"non-dense ids", func(w *World) { w.Hotspots[1].ID = 5 }},
		{"negative capacity", func(w *World) { w.Hotspots[0].ServiceCapacity = -1 }},
		{"negative cache", func(w *World) { w.Hotspots[0].CacheCapacity = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := testWorld()
			tt.mut(w)
			if err := w.Validate(); err == nil {
				t.Error("Validate() succeeded, want error")
			}
		})
	}
}

func TestTraceValidate(t *testing.T) {
	w := testWorld()
	tr := &Trace{Slots: 2, Requests: []Request{
		{ID: 0, Video: 1, Slot: 0},
		{ID: 1, Video: 99, Slot: 1},
	}}
	if err := tr.Validate(w); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Slots: 0}
	if err := bad.Validate(w); err == nil {
		t.Error("Validate(zero slots) succeeded")
	}
	badSlot := &Trace{Slots: 2, Requests: []Request{{Video: 1, Slot: 5}}}
	if err := badSlot.Validate(w); err == nil {
		t.Error("Validate(slot out of range) succeeded")
	}
	badVideo := &Trace{Slots: 2, Requests: []Request{{Video: 100, Slot: 0}}}
	if err := badVideo.Validate(w); err == nil {
		t.Error("Validate(video out of range) succeeded")
	}
}

func TestTraceBySlot(t *testing.T) {
	tr := &Trace{Slots: 3, Requests: []Request{
		{ID: 0, Slot: 2},
		{ID: 1, Slot: 0},
		{ID: 2, Slot: 2},
	}}
	by := tr.BySlot()
	if len(by) != 3 {
		t.Fatalf("BySlot() len %d, want 3", len(by))
	}
	if len(by[0]) != 1 || by[0][0].ID != 1 {
		t.Errorf("slot 0 = %v", by[0])
	}
	if len(by[1]) != 0 {
		t.Errorf("slot 1 = %v, want empty", by[1])
	}
	if len(by[2]) != 2 || by[2][0].ID != 0 || by[2][1].ID != 2 {
		t.Errorf("slot 2 = %v (order must be preserved)", by[2])
	}
}

func TestWorldIndex(t *testing.T) {
	w := testWorld()
	idx, err := w.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if idx.Len() != len(w.Hotspots) {
		t.Fatalf("index has %d points, want %d", idx.Len(), len(w.Hotspots))
	}
	id, _, ok := idx.Nearest(geo.Point{X: 1.1, Y: 2.1})
	if !ok || id != 0 {
		t.Errorf("Nearest = (%d, %v), want hotspot 0", id, ok)
	}
	id, _, ok = idx.Nearest(geo.Point{X: 3.4, Y: 4.3})
	if !ok || id != 1 {
		t.Errorf("Nearest = (%d, %v), want hotspot 1", id, ok)
	}
}

// TestCapacityRows: both nominal rows are indexed by hotspot, and each
// call returns a fresh slice, so a caller that degrades its row in
// place leaves the world and the next row as they were.
func TestCapacityRows(t *testing.T) {
	w := testWorld()
	svc, cache := w.ServiceCapacities(), w.CacheCapacities()
	if len(svc) != len(w.Hotspots) || len(cache) != len(w.Hotspots) {
		t.Fatalf("rows of %d and %d for %d hotspots", len(svc), len(cache), len(w.Hotspots))
	}
	for h, hs := range w.Hotspots {
		if svc[h] != hs.ServiceCapacity || cache[h] != hs.CacheCapacity {
			t.Fatalf("hotspot %d: rows (%d, %d), world (%d, %d)", h, svc[h], cache[h], hs.ServiceCapacity, hs.CacheCapacity)
		}
	}
	svc[0], cache[0] = -1, -1
	if w.Hotspots[0].ServiceCapacity == -1 || w.Hotspots[0].CacheCapacity == -1 {
		t.Fatal("a row aliases the world's hotspots")
	}
	if w.ServiceCapacities()[0] == -1 || w.CacheCapacities()[0] == -1 {
		t.Fatal("a second call returned the degraded row")
	}
}
