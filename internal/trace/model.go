// Package trace defines the crowdsourced-CDN domain model (videos,
// content hotspots, users, request sessions) and a calibrated synthetic
// generator that substitutes for the paper's proprietary datasets (the
// iQiyi video-session trace and the Beijing Wi-Fi AP deployment trace).
//
// The generator reproduces the three statistical properties the paper's
// measurement study establishes and RBCAer exploits:
//
//  1. highly skewed nearest-routing hotspot workloads (99th percentile
//     about 9x the median — Fig. 2),
//  2. low workload correlation between nearby hotspots over the hours
//     of a day (~70% of pairs below 0.4 Spearman — Fig. 3a), and
//  3. widely varying content similarity between nearby hotspots
//     (top-20% Jaccard spread over roughly 0.1-0.8 — Fig. 3b).
//
// It also reads and writes traces in CSV/JSON so the cmd tools can
// interoperate.
package trace

import (
	"fmt"

	"repro/internal/geo"
)

// VideoID identifies a video. Videos are unit-sized, following the
// paper's chunking assumption.
type VideoID int32

// HotspotID identifies a content hotspot (an edge device such as a
// smart Wi-Fi AP).
type HotspotID int32

// UserID identifies a user.
type UserID int32

// Hotspot is an edge content hotspot with tight service and storage
// capacity, co-located with a Wi-Fi AP at a fixed location.
type Hotspot struct {
	ID       HotspotID
	Location geo.Point
	// ServiceCapacity is the number of requests the hotspot can serve
	// in one timeslot (s_h in the paper).
	ServiceCapacity int64
	// CacheCapacity is the number of unit-size videos the hotspot can
	// cache (c_h in the paper).
	CacheCapacity int
}

// Request is one video session: a user at a location requesting a video
// during a timeslot. Following the paper, each request has unit demand
// and is served by exactly one hotspot or the origin CDN server for its
// whole duration.
type Request struct {
	ID       int
	User     UserID
	Video    VideoID
	Location geo.Point
	Slot     int
}

// World is the static deployment: the service region, the hotspot
// fleet, the video catalogue size, and the latency charged when the
// origin CDN server serves a request.
type World struct {
	Bounds    geo.Rect
	Hotspots  []Hotspot
	NumVideos int
	// CDNDistanceKm is the access-latency proxy charged for requests
	// served by the origin CDN server. The paper sets it to the
	// evaluation rectangle's diagonal (20 km).
	CDNDistanceKm float64
}

// Validate checks internal consistency of the world.
func (w *World) Validate() error {
	if !w.Bounds.Valid() || w.Bounds.Area() <= 0 {
		return fmt.Errorf("trace: invalid world bounds %+v", w.Bounds)
	}
	if w.NumVideos <= 0 {
		return fmt.Errorf("trace: non-positive video count %d", w.NumVideos)
	}
	if w.CDNDistanceKm <= 0 {
		return fmt.Errorf("trace: non-positive CDN distance %v", w.CDNDistanceKm)
	}
	if len(w.Hotspots) == 0 {
		return fmt.Errorf("trace: no hotspots")
	}
	for i, h := range w.Hotspots {
		if int(h.ID) != i {
			return fmt.Errorf("trace: hotspot %d has ID %d (IDs must be dense)", i, h.ID)
		}
		if h.ServiceCapacity < 0 {
			return fmt.Errorf("trace: hotspot %d has negative service capacity", i)
		}
		if h.CacheCapacity < 0 {
			return fmt.Errorf("trace: hotspot %d has negative cache capacity", i)
		}
	}
	return nil
}

// OverrideCapacities sets every hotspot's service and cache capacity to
// a fraction of the video-set size, the unit the paper's sweeps use
// (<= 0 keeps that capacity as it is).
func (w *World) OverrideCapacities(svcFrac, cacheFrac float64) {
	for i := range w.Hotspots {
		if svcFrac > 0 {
			w.Hotspots[i].ServiceCapacity = int64(float64(w.NumVideos)*svcFrac + 0.5)
		}
		if cacheFrac > 0 {
			w.Hotspots[i].CacheCapacity = int(float64(w.NumVideos)*cacheFrac + 0.5)
		}
	}
}

// ServiceCapacities returns the hotspots' nominal service capacities,
// indexed by hotspot.
func (w *World) ServiceCapacities() []int64 {
	out := make([]int64, len(w.Hotspots))
	for h := range w.Hotspots {
		out[h] = w.Hotspots[h].ServiceCapacity
	}
	return out
}

// CacheCapacities returns the hotspots' nominal cache capacities,
// indexed by hotspot, in a fresh slice.
func (w *World) CacheCapacities() []int {
	out := make([]int, len(w.Hotspots))
	for h := range w.Hotspots {
		out[h] = w.Hotspots[h].CacheCapacity
	}
	return out
}

// Index builds a spatial index over the world's hotspots for
// nearest/range queries (geo.NewIndex: about one hotspot per cell).
func (w *World) Index() (*geo.Grid, error) {
	ids := make([]int, len(w.Hotspots))
	pts := make([]geo.Point, len(w.Hotspots))
	for i, h := range w.Hotspots {
		ids[i], pts[i] = int(h.ID), h.Location
	}
	g, err := geo.NewIndex(w.Bounds, ids, pts)
	if err != nil {
		return nil, fmt.Errorf("trace: building hotspot index: %w", err)
	}
	return g, nil
}

// Trace is a sequence of requests over a number of timeslots against a
// world.
type Trace struct {
	Slots    int
	Requests []Request
}

// Validate checks the trace against the world.
func (t *Trace) Validate(w *World) error {
	if t.Slots <= 0 {
		return fmt.Errorf("trace: non-positive slot count %d", t.Slots)
	}
	for i, r := range t.Requests {
		if r.Slot < 0 || r.Slot >= t.Slots {
			return fmt.Errorf("trace: request %d slot %d outside [0, %d)", i, r.Slot, t.Slots)
		}
		if int(r.Video) < 0 || int(r.Video) >= w.NumVideos {
			return fmt.Errorf("trace: request %d video %d outside [0, %d)", i, r.Video, w.NumVideos)
		}
	}
	return nil
}

// BySlot partitions requests by timeslot, preserving order.
func (t *Trace) BySlot() [][]Request {
	out := make([][]Request, t.Slots)
	for _, r := range t.Requests {
		out[r.Slot] = append(out[r.Slot], r)
	}
	return out
}
