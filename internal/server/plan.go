package server

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// CDN is the lookup answer meaning "fetch from the origin CDN server".
const CDN = core.CDN

// servingPlan is one verified scheduling plan and the one router
// (core.Router) that routes its requests. Server.publish builds one per
// epoch from the canonical bytes and stores the same pointer into every
// frontend, so a concurrent lookup sees either the complete previous
// plan or the complete new one — never a partial mix. Only the
// router's per-hotspot state moves after publication, each hotspot's
// under its own lock: a hotspot's answers follow the order its lookups
// take that lock, whichever frontends they arrive at.
type servingPlan struct {
	// epoch is the swap sequence number (1 for the first plan).
	epoch int64
	// slot is the timeslot whose demand produced the plan.
	slot int
	// digest fingerprints the plan's canonical bytes (core.DigestOf).
	digest uint64
	router *core.Router
	// mu[h] serialises the lookups aggregated at hotspot h.
	mu []sync.Mutex
}

// newServingPlan builds the router of a verified plan that fits world,
// for the world's nominal service capacities — those the round
// schedules against (core.Constraints{}). It refuses a plan that
// reserves more inflow at a hotspot than its capacity.
func newServingPlan(epoch int64, slot int, plan *core.Plan, digest uint64, world *trace.World) (*servingPlan, error) {
	router, err := core.NewRouter(plan.Placement, plan.Redirects, world.ServiceCapacities())
	if err != nil {
		return nil, err
	}
	return &servingPlan{epoch: epoch, slot: slot, digest: digest, router: router, mu: make([]sync.Mutex, len(world.Hotspots))}, nil
}

// checkFits refuses a decoded plan that does not belong to a world of
// m hotspots and numVideos videos: a row count other than m, or a
// hotspot or video id outside the world. A WAL recovered on another
// world would otherwise serve redirects to hotspots outside the fleet.
// Placement rows are ascending, so each row's first and last id bound
// it. Cost: O(rows + flows + redirects).
func checkFits(plan *core.Plan, m, numVideos int) error {
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

// lookup routes one request aggregated at hotspot h for video v by
// the plan's router. A nil plan (before the first swap) routes
// everything to the CDN.
func (sp *servingPlan) lookup(h, v int) int {
	if sp == nil {
		return CDN
	}
	sp.mu[h].Lock()
	defer sp.mu[h].Unlock()
	return sp.router.Route(h, v)
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
