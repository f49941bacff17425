package shard

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// boundaryStats summarises one boundary-reconciliation pass.
type boundaryStats struct {
	moves         int64
	movedFlow     int64
	replicasAdded int64
	elapsed       time.Duration
}

// reconcile offloads residual overflow across shard edges. Each move
// converts one unit of a source hotspot's OverflowToCDN into a redirect
// toward an under-loaded hotspot in a different shard, within that
// target's remaining service slack and cache capacity, so every
// invariant of the merged plan is preserved:
//
//   - per-hotspot outgoing + overflow still equals the surplus
//     max(0, λ−s) (a move shifts a unit from overflow to outgoing);
//   - per-(source, video) outgoing never exceeds the source's demand
//     for that video (tracked in avail);
//   - target load (retained + inflow) never exceeds its service
//     capacity (tracked in slack);
//   - target placement never exceeds its cache capacity (a video is
//     placed on first use, only if a cache slot is free).
//
// Ordering is fully deterministic: sources drain in (initial shard
// overflow desc, hotspot overflow desc, hotspot index asc) order — the
// most overloaded shard first, so whenever any move is possible the
// maximum per-shard residual overload strictly decreases; targets are
// visited nearest-first (ties by index); videos largest-remaining-
// demand first (ties by id).
//
// The videos a move places are collected per target and merged into
// the placement once, at the end.
func (s *Scheduler) reconcile(plan *core.Plan, d *core.Demand, svc []int64, cache []int) boundaryStats {
	var bst boundaryStats
	m := len(s.world.Hotspots)
	overflow := plan.OverflowToCDN

	// Per-hotspot redirect totals and per-(source,video) outgoing
	// counts from the merged local plans.
	outBy := make([]int64, m)
	inBy := make([]int64, m)
	outPerVideo := make([]map[trace.VideoID]int64, m)
	for _, r := range plan.Redirects {
		outBy[r.From] += r.Count
		inBy[r.To] += r.Count
		pv := outPerVideo[r.From]
		if pv == nil {
			pv = make(map[trace.VideoID]int64)
			outPerVideo[r.From] = pv
		}
		pv[r.Video] += r.Count
	}

	// slack[j] = service headroom after local rounds: capacity minus
	// retained load minus inflow. cacheFree[j] = free cache slots.
	slack := make([]int64, m)
	cacheFree := make([]int, m)
	for j := 0; j < m; j++ {
		retained := d.Totals[j] - outBy[j] - overflow[j]
		slack[j] = svc[j] - retained - inBy[j]
		cacheFree[j] = cache[j] - plan.Placement.Len(j)
	}

	// Shard overflow totals drive the source order: drain the most
	// overloaded shard first.
	shardOverflow := make([]int64, len(s.scheds))
	for h := 0; h < m; h++ {
		shardOverflow[s.part.OfHotspot[h]] += overflow[h]
	}
	sources := make([]int, 0, m)
	for h := 0; h < m; h++ {
		if overflow[h] > 0 {
			sources = append(sources, h)
		}
	}
	sort.Slice(sources, func(a, b int) bool {
		ha, hb := sources[a], sources[b]
		sa, sb := shardOverflow[s.part.OfHotspot[ha]], shardOverflow[s.part.OfHotspot[hb]]
		if sa != sb {
			return sa > sb
		}
		if overflow[ha] != overflow[hb] {
			return overflow[ha] > overflow[hb]
		}
		return ha < hb
	})

	added := make([][]int32, m)

	type videoAvail struct {
		v     trace.VideoID
		avail int64
	}
	var targets []int
	var vids []videoAvail

	for _, h := range sources {
		if overflow[h] == 0 {
			continue
		}
		srcShard := s.part.OfHotspot[h]
		from := s.world.Hotspots[h].Location

		// Candidate targets: hotspots in other shards, nearest first.
		targets = targets[:0]
		for j := 0; j < m; j++ {
			if s.part.OfHotspot[j] == srcShard || slack[j] <= 0 {
				continue
			}
			targets = append(targets, j)
		}
		if len(targets) == 0 {
			continue
		}
		sort.Slice(targets, func(a, b int) bool {
			da := from.DistanceTo(s.world.Hotspots[targets[a]].Location)
			db := from.DistanceTo(s.world.Hotspots[targets[b]].Location)
			if da != db {
				return da < db
			}
			return targets[a] < targets[b]
		})

		// Movable demand per video: the source's demand not already
		// redirected, largest remaining first.
		vids = vids[:0]
		d.Each(h, func(v trace.VideoID, n int64) {
			if rest := n - outPerVideo[h][v]; rest > 0 {
				vids = append(vids, videoAvail{v, rest})
			}
		})
		sort.Slice(vids, func(a, b int) bool {
			if vids[a].avail != vids[b].avail {
				return vids[a].avail > vids[b].avail
			}
			return vids[a].v < vids[b].v
		})

		for vi := range vids {
			if overflow[h] == 0 {
				break
			}
			v, avail := vids[vi].v, vids[vi].avail
			for _, j := range targets {
				if avail == 0 || overflow[h] == 0 {
					break
				}
				if slack[j] <= 0 {
					continue
				}
				placed := plan.Placement.Contains(j, int(v)) || slices.Contains(added[j], int32(v))
				if !placed && cacheFree[j] <= 0 {
					continue
				}
				amt := overflow[h]
				if avail < amt {
					amt = avail
				}
				if slack[j] < amt {
					amt = slack[j]
				}
				if amt <= 0 {
					continue
				}
				if !placed {
					added[j] = append(added[j], int32(v))
					cacheFree[j]--
					bst.replicasAdded++
				}
				plan.Redirects = append(plan.Redirects, core.Redirect{
					From:  trace.HotspotID(h),
					To:    trace.HotspotID(j),
					Video: v,
					Count: amt,
				})
				slack[j] -= amt
				overflow[h] -= amt
				avail -= amt
				if outPerVideo[h] == nil {
					outPerVideo[h] = make(map[trace.VideoID]int64)
				}
				outPerVideo[h][v] += amt
				bst.moves++
				bst.movedFlow += amt
			}
		}
	}
	if bst.replicasAdded > 0 {
		plan.Placement = plan.Placement.WithAdded(added)
	}
	return bst
}
