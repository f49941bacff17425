package trace

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// FuzzWorldValidate throws arbitrary world shapes at Validate and
// checks the contract the rest of the repo relies on: Validate never
// panics, and any world it accepts can be spatially indexed and can
// validate a well-formed trace without blowing up.
func FuzzWorldValidate(f *testing.F) {
	// Seed corpus: a healthy world, plus one neighbour per rejection
	// branch in Validate.
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(10), int32(8), 100, 20.0, int32(0))
	f.Add(3.0, 1.0, 3.0, 9.0, int16(2), int64(5), int32(4), 50, 20.0, int32(0))    // zero-area bounds
	f.Add(0.0, 0.0, 4.0, 5.0, int16(0), int64(10), int32(8), 100, 20.0, int32(0))  // no hotspots
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(-1), int32(8), 100, 20.0, int32(0))  // negative service
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(10), int32(-2), 100, 20.0, int32(0)) // negative cache
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(10), int32(8), 0, 20.0, int32(0))    // no videos
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(10), int32(8), 100, -3.0, int32(0))  // bad CDN distance
	f.Add(0.0, 0.0, 4.0, 5.0, int16(3), int64(10), int32(8), 100, 20.0, int32(7))  // sparse IDs
	f.Add(math.NaN(), 0.0, 4.0, 5.0, int16(3), int64(10), int32(8), 100, 20.0, int32(0))

	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY float64,
		numHotspots int16, svc int64, cache int32,
		numVideos int, cdnKm float64, idOffset int32) {
		n := int(numHotspots)
		if n < 0 {
			n = -n
		}
		n %= 256 // keep fuzz iterations cheap
		w := &World{
			Bounds:        geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
			NumVideos:     numVideos,
			CDNDistanceKm: cdnKm,
		}
		for i := 0; i < n; i++ {
			frac := float64(i) / float64(n)
			w.Hotspots = append(w.Hotspots, Hotspot{
				ID: HotspotID(int32(i) + idOffset),
				Location: geo.Point{
					X: minX + frac*(maxX-minX),
					Y: minY + frac*(maxY-minY),
				},
				ServiceCapacity: svc,
				CacheCapacity:   int(cache),
			})
		}
		if err := w.Validate(); err != nil {
			return // rejected; only the absence of a panic matters
		}
		// Accepted worlds must be indexable: the simulator calls
		// World.Index unconditionally after a successful Validate.
		if _, err := w.Index(); err != nil {
			t.Fatalf("Validate accepted a world that Index rejects: %v", err)
		}
		// And a minimal in-range trace must validate against them.
		tr := &Trace{Slots: 1, Requests: []Request{
			{ID: 0, Video: 0, Location: w.Hotspots[0].Location, Slot: 0},
		}}
		if err := tr.Validate(w); err != nil {
			t.Fatalf("well-formed trace rejected against accepted world: %v", err)
		}
	})
}
