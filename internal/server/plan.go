package server

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// CDN is the lookup answer meaning "fetch from the origin CDN server"
// (the same sentinel as sim.CDN).
const CDN = -1

// servingPlan is one immutable, fully materialised scheduling plan plus
// the lookup structures derived from it. Server.publish builds one per
// epoch from the verified canonical bytes and stores the same pointer
// into every frontend, so a concurrent lookup sees either the complete
// previous plan or the complete new one — never a partial mix. Only the
// round-robin cursors move after publication, and those are atomics
// that never affect the plan's content.
type servingPlan struct {
	// epoch is the swap sequence number (1 for the first plan).
	epoch int64
	// slot is the timeslot whose demand produced the plan.
	slot int
	// digest fingerprints the plan's canonical bytes (core.DigestOf).
	digest uint64
	// placement holds the video set each hotspot prefetches as a sorted
	// run.
	placement core.PlacementRuns
	// redirect maps the (hotspot, video) pairs the plan moves elsewhere
	// to their index in entries.
	redirect map[int64]int32
	entries  []redirectEntry
	// cursors[f][e] is frontend f's round-robin position in entries[e]:
	// each frontend cycles through the planned counts on its own.
	cursors [][]atomic.Int64
	// numVideos is the redirect key stride.
	numVideos int64
}

// redirectEntry fans one (source hotspot, video) pair's lookups out
// over the plan's redirect targets, proportionally to the planned
// per-target counts.
type redirectEntry struct {
	targets []int32
	// cum[i] is the cumulative planned count through targets[i];
	// total == cum[len-1].
	cum   []int64
	total int64
}

// next returns the entry's next target for a frontend whose cursor
// this is, cycling deterministically through the planned counts (first
// `cum[0]` lookups to targets[0], and so on, modulo total).
func (e *redirectEntry) next(cursor *atomic.Int64) int {
	i := cursor.Add(1) - 1
	// Reduce modulo total in unsigned space: the int64 cursor
	// eventually wraps negative, and a signed % would then yield a
	// negative pos, pinning every lookup to targets[0] forever. The
	// uint64 view of the counter stays continuous across the wrap.
	pos := int64(uint64(i) % uint64(e.total))
	j := sort.Search(len(e.cum), func(k int) bool { return e.cum[k] > pos })
	return int(e.targets[j])
}

// newServingPlan materialises a verified plan for a tier of frontends
// frontends, each with its own row of redirect cursors.
func newServingPlan(epoch int64, slot int, plan *core.DecodedPlan, digest uint64, numVideos, frontends int) *servingPlan {
	sp := &servingPlan{
		epoch:     epoch,
		slot:      slot,
		digest:    digest,
		placement: plan.Placement,
		redirect:  make(map[int64]int32, len(plan.Redirects)),
		numVideos: int64(numVideos),
	}
	for _, rd := range plan.Redirects {
		if rd.Count <= 0 {
			continue
		}
		k := int64(rd.From)*sp.numVideos + int64(rd.Video)
		i, ok := sp.redirect[k]
		if !ok {
			i = int32(len(sp.entries))
			sp.redirect[k] = i
			sp.entries = append(sp.entries, redirectEntry{})
		}
		e := &sp.entries[i]
		e.total += rd.Count
		e.targets = append(e.targets, int32(rd.To))
		e.cum = append(e.cum, e.total)
	}
	sp.cursors = make([][]atomic.Int64, frontends)
	for f := range sp.cursors {
		sp.cursors[f] = make([]atomic.Int64, len(sp.entries))
	}
	return sp
}

// checkFits refuses a decoded plan that does not belong to a world of
// m hotspots and numVideos videos: a row count other than m, or a
// hotspot or video id outside the world. A WAL recovered on another
// world would otherwise serve redirects to hotspots outside the fleet.
// Placement rows are ascending, so each row's first and last id bound
// it. Cost: O(rows + flows + redirects).
func checkFits(plan *core.DecodedPlan, m, numVideos int) error {
	if plan.Placement.Rows() != m || len(plan.OverflowToCDN) != m {
		return fmt.Errorf("plan covers %d placement rows and %d overflow entries, world has %d hotspots",
			plan.Placement.Rows(), len(plan.OverflowToCDN), m)
	}
	outside := func(id int32, n int) bool { return uint32(id) >= uint32(n) }
	for _, f := range plan.Flows {
		if outside(int32(f.From), m) || outside(int32(f.To), m) {
			return fmt.Errorf("flow %d -> %d outside the %d-hotspot world", f.From, f.To, m)
		}
	}
	for _, rd := range plan.Redirects {
		if outside(int32(rd.From), m) || outside(int32(rd.To), m) || outside(int32(rd.Video), numVideos) {
			return fmt.Errorf("redirect %d -> %d of video %d outside the world", rd.From, rd.To, rd.Video)
		}
	}
	for h := range m {
		if row := plan.Placement.Row(h); len(row) > 0 && (outside(row[0], numVideos) || outside(row[len(row)-1], numVideos)) {
			return fmt.Errorf("hotspot %d places a video outside the %d-video catalogue", h, numVideos)
		}
	}
	return nil
}

// lookupResult is one routing decision.
type lookupResult struct {
	// target is the serving hotspot, or CDN.
	target int
	// redirected reports the request followed a plan redirect edge
	// (target differs from its aggregation hotspot by plan, not by
	// cache miss).
	redirected bool
}

// lookup routes one request aggregated at hotspot h for video v, as
// frontend f answers it: planned redirects first (cycling through
// targets proportionally to the planned counts), then the local cache
// placement, then the CDN. A nil plan (before the first swap) routes
// everything to the CDN.
func (sp *servingPlan) lookup(f, h, v int) lookupResult {
	if sp == nil {
		return lookupResult{target: CDN}
	}
	if i, ok := sp.redirect[int64(h)*sp.numVideos+int64(v)]; ok {
		return lookupResult{target: sp.entries[i].next(&sp.cursors[f][i]), redirected: true}
	}
	if sp.placement.Contains(h, v) {
		return lookupResult{target: h}
	}
	return lookupResult{target: CDN}
}

// PlanRecord is the public per-slot plan summary served by /plans and
// returned from AdvanceSlot.
type PlanRecord struct {
	Slot     int    `json:"slot"`
	Epoch    int64  `json:"epoch"`
	Requests int64  `json:"requests"`
	Digest   string `json:"digest"`
	// Canonical is the hex encoding of the plan's canonical bytes (the
	// e2e harness compares it against the offline simulator's plans).
	Canonical string `json:"canonical,omitempty"`
	Degraded  bool   `json:"degraded"`
	Replicas  int64  `json:"replicas"`
	Redirects int    `json:"redirects"`
	MovedFlow int64  `json:"moved_flow"`
	Stranded  int64  `json:"stranded_to_cdn"`
}

// digestString renders a plan digest the way PlanRecord reports it.
func digestString(d uint64) string { return fmt.Sprintf("%016x", d) }

// appendDigest appends the same 16-hex-digit rendering without
// formatting allocations (hot lookup path).
func appendDigest(b []byte, d uint64) []byte {
	const hexdigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexdigits[(d>>uint(shift))&0xf])
	}
	return b
}
