package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs/invariant"
	"repro/internal/trace"
)

func hot(id int, x, y float64, svc int64, cache int) trace.Hotspot {
	return trace.Hotspot{
		ID:              trace.HotspotID(id),
		Location:        geo.Point{X: x, Y: y},
		ServiceCapacity: svc,
		CacheCapacity:   cache,
	}
}

func buildWorld(t *testing.T, hotspots ...trace.Hotspot) *trace.World {
	t.Helper()
	w := &trace.World{
		Bounds:        geo.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20},
		Hotspots:      hotspots,
		NumVideos:     16,
		CDNDistanceKm: 28,
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("hand-built world invalid: %v", err)
	}
	return w
}

// shardOverflow sums a plan's residual CDN overflow per shard.
func shardOverflowOf(s *Scheduler, plan *core.Plan) []int64 {
	out := make([]int64, s.NumShards())
	for h, o := range plan.OverflowToCDN {
		out[s.part.OfHotspot[h]] += o
	}
	return out
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// boundaryCase is one adversarial world for the reconciliation
// property tests. Every case is checked for the shared properties
// (invariant-clean merged plan, demand conservation, no hotspot's
// overflow ever increases vs. the boundary-disabled run); wantMoved
// and wantStrictMaxDrop add per-case expectations.
type boundaryCase struct {
	name   string
	world  func(t *testing.T) *trace.World
	demand func(d *core.Demand)
	params Params
	// wantMoved: boundary pass must move exactly this much flow
	// (negative = don't check the exact amount, just > 0).
	wantMoved int64
	// wantStrictMaxDrop: the max per-shard overflow must strictly
	// decrease vs. the boundary-disabled run.
	wantStrictMaxDrop bool
	// check runs extra per-case assertions on the reconciled plan.
	check func(t *testing.T, s *Scheduler, plan *core.Plan)
}

func boundaryCases() []boundaryCase {
	const cell = 5.0
	return []boundaryCase{
		{
			// One overloaded single-hotspot shard, two empty (zero
			// demand) single-hotspot shards with slack. All residual
			// overload must drain to the nearest shard.
			name: "single-hotspot shards, one hotspot overloaded",
			world: func(t *testing.T) *trace.World {
				return buildWorld(t,
					hot(0, 1, 1, 2, 4),
					hot(1, 11, 1, 10, 4),
					hot(2, 1, 11, 10, 4),
				)
			},
			demand: func(d *core.Demand) {
				d.Add(0, 1, 10) // surplus 8 at hotspot 0
			},
			params:            Params{CellKm: cell},
			wantMoved:         8,
			wantStrictMaxDrop: true,
			check: func(t *testing.T, s *Scheduler, plan *core.Plan) {
				if got := plan.Stats.StrandedToCDN; got != 0 {
					t.Errorf("residual overflow %d, want 0", got)
				}
				if len(plan.Redirects) != 1 {
					t.Fatalf("got %d redirects, want exactly 1 boundary move", len(plan.Redirects))
				}
				r := plan.Redirects[0]
				if r.From != 0 || r.To != 1 || r.Count != 8 {
					t.Errorf("boundary move %+v, want 8 units 0→1 (nearest shard first)", r)
				}
				if s.part.OfHotspot[r.From] == s.part.OfHotspot[r.To] {
					t.Error("boundary move is not cross-shard")
				}
				if !plan.Placement.Contains(int(r.To), int(r.Video)) {
					t.Error("boundary move target does not place the video")
				}
			},
		},
		{
			// Every shard overloaded: no slack exists anywhere, the
			// boundary pass must move nothing and leave the plan clean.
			name: "all shards overloaded",
			world: func(t *testing.T) *trace.World {
				return buildWorld(t,
					hot(0, 1, 1, 2, 4),
					hot(1, 11, 1, 3, 4),
					hot(2, 1, 11, 4, 4),
				)
			},
			demand: func(d *core.Demand) {
				d.Add(0, 1, 10)
				d.Add(1, 2, 9)
				d.Add(2, 3, 8)
			},
			params:    Params{CellKm: cell},
			wantMoved: 0,
			check: func(t *testing.T, s *Scheduler, plan *core.Plan) {
				if got, want := plan.Stats.StrandedToCDN, int64(8+6+4); got != want {
					t.Errorf("residual overflow %d, want full surplus %d", got, want)
				}
				if len(plan.Redirects) != 0 {
					t.Errorf("got %d redirects in a world with no slack", len(plan.Redirects))
				}
			},
		},
		{
			// Slack-limited drain: the 10-unit surplus exceeds the 7
			// units of cross-shard slack, so the pass must fill every
			// target to exactly its slack and strand the rest.
			name: "slack-limited targets",
			world: func(t *testing.T) *trace.World {
				return buildWorld(t,
					hot(0, 1, 1, 2, 4),
					hot(1, 11, 1, 4, 4),
					hot(2, 1, 11, 3, 4),
				)
			},
			demand: func(d *core.Demand) {
				d.Add(0, 1, 12) // surplus 10; cross-shard slack 4+3=7
			},
			params:            Params{CellKm: cell},
			wantMoved:         7,
			wantStrictMaxDrop: true,
			check: func(t *testing.T, s *Scheduler, plan *core.Plan) {
				if got := plan.Stats.StrandedToCDN; got != 3 {
					t.Errorf("residual overflow %d, want 3", got)
				}
			},
		},
		{
			// Cache-constrained target: the nearest slack-bearing
			// hotspot has no cache slot, so the pass must skip it and
			// place at the farther one.
			name: "nearest target cache-full",
			world: func(t *testing.T) *trace.World {
				return buildWorld(t,
					hot(0, 1, 1, 2, 4),
					hot(1, 6, 1, 10, 0), // nearest, but zero cache
					hot(2, 11, 1, 10, 2),
				)
			},
			demand: func(d *core.Demand) {
				d.Add(0, 1, 7) // surplus 5
			},
			params:            Params{CellKm: cell},
			wantMoved:         5,
			wantStrictMaxDrop: true,
			check: func(t *testing.T, s *Scheduler, plan *core.Plan) {
				for _, r := range plan.Redirects {
					if r.To == 1 {
						t.Errorf("boundary move targeted cache-less hotspot 1: %+v", r)
					}
				}
			},
		},
	}
}

func TestBoundaryReconciliationProperties(t *testing.T) {
	for _, tc := range boundaryCases() {
		t.Run(tc.name, func(t *testing.T) {
			world := tc.world(t)
			d := core.NewDemand(len(world.Hotspots))
			tc.demand(d)
			snapshot := d.Clone()

			s, err := New(world, tc.params)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			off := tc.params
			off.DisableBoundary = true
			sOff, err := New(world, off)
			if err != nil {
				t.Fatalf("New(boundary off): %v", err)
			}

			plan, err := s.ScheduleRound(d, core.Constraints{})
			if err != nil {
				t.Fatalf("ScheduleRound: %v", err)
			}
			planOff, err := sOff.ScheduleRound(snapshot.Clone(), core.Constraints{})
			if err != nil {
				t.Fatalf("ScheduleRound(boundary off): %v", err)
			}

			// The merged, reconciled plan satisfies every first-
			// principles invariant (targets within service and cache
			// constraints, per-video moves within demand, ledger and
			// Ω1 consistent).
			if err := invariant.CheckPlan(world, d, core.Constraints{}, plan); err != nil {
				t.Fatalf("reconciled plan violates invariants: %v", err)
			}
			if err := invariant.CheckPlan(world, snapshot, core.Constraints{}, planOff); err != nil {
				t.Fatalf("boundary-disabled plan violates invariants: %v", err)
			}

			// Conservation: reconciliation never mutates the demand.
			for h := range d.Totals {
				if d.Totals[h] != snapshot.Totals[h] {
					t.Fatalf("demand mutated at hotspot %d", h)
				}
			}

			// Moves only convert overflow into redirects: no hotspot's
			// overflow may increase vs. the boundary-disabled run, and
			// total served demand never drops.
			moved := int64(0)
			for h := range plan.OverflowToCDN {
				if plan.OverflowToCDN[h] > planOff.OverflowToCDN[h] {
					t.Errorf("hotspot %d overflow grew: %d > %d",
						h, plan.OverflowToCDN[h], planOff.OverflowToCDN[h])
				}
				moved += planOff.OverflowToCDN[h] - plan.OverflowToCDN[h]
			}
			if tc.wantMoved >= 0 && moved != tc.wantMoved {
				t.Errorf("boundary pass moved %d units, want %d", moved, tc.wantMoved)
			}

			// Max per-shard overload never increases; when the case
			// guarantees a feasible move out of the max-overloaded
			// shard it must strictly decrease.
			maxBefore := maxOf(shardOverflowOf(sOff, planOff))
			maxAfter := maxOf(shardOverflowOf(s, plan))
			if maxAfter > maxBefore {
				t.Errorf("max shard overload grew: %d > %d", maxAfter, maxBefore)
			}
			if tc.wantStrictMaxDrop && maxAfter >= maxBefore {
				t.Errorf("max shard overload %d did not strictly drop from %d", maxAfter, maxBefore)
			}

			// Every cross-shard redirect is a boundary move with
			// positive count landing in a different shard.
			for _, r := range plan.Redirects {
				if r.Count <= 0 {
					t.Errorf("non-positive redirect %+v", r)
				}
				if r.From == r.To {
					t.Errorf("self-redirect %+v", r)
				}
			}

			if tc.check != nil {
				tc.check(t, s, plan)
			}
		})
	}
}

// TestBoundaryDisableMatchesShardUnion: with reconciliation disabled,
// the merged plan is exactly the union of independent per-shard solves
// — every redirect stays intra-shard.
func TestBoundaryDisableMatchesShardUnion(t *testing.T) {
	world, tr := genWorld(t, 40, 1000, 2000, 6000, 1)
	d := slotDemands(t, world, tr)[0]
	s, err := New(world, Params{CellKm: 4, DisableBoundary: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plan, err := s.ScheduleRound(d, core.Constraints{})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	for _, r := range plan.Redirects {
		if s.part.OfHotspot[r.From] != s.part.OfHotspot[r.To] {
			t.Fatalf("cross-shard redirect %+v with boundary pass disabled", r)
		}
	}
	if err := invariant.CheckPlan(world, d, core.Constraints{}, plan); err != nil {
		t.Fatalf("boundary-disabled plan violates invariants: %v", err)
	}
}
