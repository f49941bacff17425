package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// CDN is the routing answer meaning "served by the origin CDN server".
const CDN = -1

// Router routes one plan's requests, each at its aggregation hotspot,
// by the one rule the simulator and the serving tier share:
//
//  1. A request whose (hotspot, video) pair the plan redirects takes
//     the pair's group of redirects in plan order, each for its planned
//     count, once; a spent group redirects nothing more.
//  2. Otherwise the hotspot serves it if it places the video and its
//     local budget — service capacity minus the inflow the plan
//     reserves there — lasts.
//  3. Everything else goes to the CDN.
//
// So no hotspot serves more than its capacity, counting local and
// redirected-in answers together. The state a request moves — its
// group's cursor and its hotspot's budget — belongs to its aggregation
// hotspot alone, so requests at different hotspots may be routed
// concurrently; those at one hotspot must be routed one at a time.
type Router struct {
	// redirects are the plan's redirects with a positive count, sorted
	// by (source, video, plan position); the groups are its runs.
	redirects []Redirect
	// keys holds the groups like a placement: row h lists the videos
	// of hotspot h's groups, ascending, and groups[k] is the group of
	// keys.IDs[k].
	keys      PlacementRuns
	groups    []routeGroup
	placement PlacementRuns
	// budget[h] is what hotspot h may still serve locally.
	budget []int64
}

// routeGroup is one (source, video) group, drained front to back.
type routeGroup struct {
	next, end int32 // the redirect being drained, as a position in redirects
	left      int64 // what that redirect has left to serve
}

// NewRouter builds the router of a plan's placement and redirects for
// the service capacities the plan was scheduled against. It refuses a
// plan that reserves more inflow at a hotspot than its capacity, and
// one that redirects from a hotspot outside the placement's rows.
// Redirects must lead to hotspots among them.
func NewRouter(placement PlacementRuns, redirects []Redirect, capacity []int64) (*Router, error) {
	m := placement.Rows()
	if len(capacity) != m {
		return nil, fmt.Errorf("core: capacities cover %d hotspots, placement has %d", len(capacity), m)
	}
	r := &Router{placement: placement, budget: slices.Clone(capacity)}
	// rows[h+1] counts the redirects from hotspot h, then is
	// prefix-summed into where h's row starts.
	rows := make([]int, m+1)
	for _, rd := range redirects {
		if rd.Count > 0 {
			if uint(rd.From) >= uint(m) {
				return nil, fmt.Errorf("core: redirect from hotspot %d outside the %d placement rows", rd.From, m)
			}
			rows[rd.From+1]++
			r.budget[rd.To] -= rd.Count
		}
	}
	for h, b := range r.budget {
		if b < 0 {
			return nil, fmt.Errorf("core: plan reserves %d inflow at hotspot %d beyond capacity %d",
				capacity[h]-b, h, capacity[h])
		}
	}
	for h := 0; h < m; h++ {
		rows[h+1] += rows[h]
	}
	r.redirects = sortRedirects(redirects, rows)
	r.keys = PlacementRuns{IDs: make([]int32, 0, len(r.redirects)), Off: make([]int, 1, m+1)}
	for lo := 0; lo < len(r.redirects); {
		first := r.redirects[lo]
		hi := lo + 1
		for hi < len(r.redirects) && r.redirects[hi].From == first.From && r.redirects[hi].Video == first.Video {
			hi++
		}
		for len(r.keys.Off) <= int(first.From) {
			r.keys.Off = append(r.keys.Off, len(r.keys.IDs))
		}
		r.groups = append(r.groups, routeGroup{next: int32(lo), end: int32(hi), left: first.Count})
		r.keys.IDs = append(r.keys.IDs, int32(first.Video))
		lo = hi
	}
	for len(r.keys.Off) <= m {
		r.keys.Off = append(r.keys.Off, len(r.keys.IDs))
	}
	return r, nil
}

// sortRedirects returns the redirects with a positive count sorted by
// (source, video, plan position) — the order slices.SortStableFunc on
// (source, video) gives — where rows, prefix-summed, says where each
// source's row starts: a stable counting pass over the sources, then
// each row sorted stably by video.
func sortRedirects(redirects []Redirect, rows []int) []Redirect {
	m := len(rows) - 1
	out := make([]Redirect, rows[m])
	next := slices.Clone(rows[:m])
	for _, rd := range redirects {
		if rd.Count > 0 {
			out[next[rd.From]] = rd
			next[rd.From]++
		}
	}
	for h := 0; h < m; h++ {
		if row := out[rows[h]:rows[h+1]]; len(row) > 1 {
			slices.SortStableFunc(row, func(a, b Redirect) int { return cmp.Compare(a.Video, b.Video) })
		}
	}
	return out
}

// RouteAll routes a slot's requests in order: request i is video
// videos[i] aggregated at hotspot nearest[i]. Which group and which
// placement entry each request meets is looked up for all of them at
// once (Probes), one merge walk per row.
func (r *Router) RouteAll(nearest []int, videos []trace.VideoID) []int {
	numVideos := 0
	for _, v := range videos {
		numVideos = max(numVideos, int(v)+1)
	}
	probes := NewProbes(nearest, videos, r.placement.Rows(), numVideos)
	groupOf, placedAt := r.keys.Locate(probes), r.placement.Locate(probes)
	targets := make([]int, len(nearest))
	for i, h := range nearest {
		targets[i] = r.decide(h, groupOf[i], placedAt[i] >= 0)
	}
	return targets
}

// Route routes one request for video v aggregated at hotspot h, by
// binary search on h's rows.
func (r *Router) Route(h, v int) int {
	return r.decide(h, r.keys.find(h, v), r.placement.Contains(h, v))
}

// decide is the one routing step: a request at hotspot h that met
// group k (-1: none) and whose video h places, or not.
func (r *Router) decide(h int, k int32, placed bool) int {
	if k >= 0 {
		if g := &r.groups[k]; g.next < g.end {
			to := int(r.redirects[g.next].To)
			if g.left--; g.left == 0 {
				if g.next++; g.next < g.end {
					g.left = r.redirects[g.next].Count
				}
			}
			return to
		}
	}
	if placed && r.budget[h] > 0 {
		r.budget[h]--
		return h
	}
	return CDN
}
