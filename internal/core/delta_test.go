package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/trace"
)

// deltaSlot is one timeslot's input to the differential harness.
type deltaSlot struct {
	d    *Demand
	cons Constraints
}

// deltaDriftSlots synthesises a slot sequence with the drift shapes the
// delta path must survive: totals-preserving mix drift (replayable),
// totals changes (partition shifts), vanishing demand rows, service and
// cache constraint flips, and completely unchanged slots.
func deltaDriftSlots(w *trace.World, videos, slots int, seed int64) []deltaSlot {
	rng := rand.New(rand.NewSource(seed))
	m := len(w.Hotspots)
	cur := randomDemand(w, 30*m, videos, seed)
	out := make([]deltaSlot, 0, slots)
	for slot := 0; slot < slots; slot++ {
		next := cur.Clone()
		var cons Constraints
		switch {
		case slot == 0 || slot%8 == 6:
			// Unchanged slot: pure replay, zero patched rows.
		default:
			// Totals-preserving mix drift at two hotspots.
			for k := 0; k < 2; k++ {
				h := trace.HotspotID(rng.Intn(m))
				for _, e := range next.row(int(h)) {
					if e.count <= 0 {
						continue
					}
					next.Add(h, e.video, -e.count)
					next.Add(h, trace.VideoID(rng.Intn(videos)), e.count)
					break
				}
			}
			if slot%4 == 1 {
				// Totals change: new load lands at one hotspot.
				next.Add(trace.HotspotID(rng.Intn(m)), trace.VideoID(rng.Intn(videos)), 3)
			}
			if slot%5 == 2 {
				// Vanishing demand: one hotspot's row empties.
				h := rng.Intn(m)
				next.Totals[h] = 0
				next.rows[h] = demandRow{}
			}
			if slot%6 == 3 {
				// Service flip: halve one hotspot's capacity, which can
				// move it across the over/under boundary.
				svc := make([]int64, m)
				for h := range svc {
					svc[h] = w.Hotspots[h].ServiceCapacity
				}
				svc[rng.Intn(m)] /= 2
				cons.Service = svc
			}
			if slot%7 == 4 {
				// Cache flip: shrink one hotspot's cache.
				cache := make([]int, m)
				for h := range cache {
					cache[h] = w.Hotspots[h].CacheCapacity
				}
				cache[rng.Intn(m)] /= 2
				cons.Cache = cache
			}
		}
		out = append(out, deltaSlot{d: next, cons: cons})
		cur = next
	}
	return out
}

// effWorld applies a slot's constraint overrides to a copy of the
// world, so checkPlanInvariants sees the capacities the round ran with.
func effWorld(w *trace.World, cons Constraints) *trace.World {
	if cons.Service == nil && cons.Cache == nil {
		return w
	}
	out := *w
	out.Hotspots = append([]trace.Hotspot(nil), w.Hotspots...)
	for h := range out.Hotspots {
		if cons.Service != nil {
			out.Hotspots[h].ServiceCapacity = cons.Service[h]
		}
		if cons.Cache != nil {
			out.Hotspots[h].CacheCapacity = cons.Cache[h]
		}
	}
	return &out
}

// deltaParams returns params running in delta mode with fallbacks
// disabled (threshold 1 never trips on drift), publishing into a fresh
// registry whose core.delta.* counters the tests read.
func deltaParams(workers int) Params {
	p := DefaultParams()
	p.Workers = workers
	p.DeltaThreshold = 1
	p.Obs = obs.NewRegistry()
	return p
}

// deltaCount reads one of a delta-mode scheduler's core.delta.*
// counters.
func deltaCount(s *Scheduler, name string) int64 {
	return s.params.Obs.Counter("core.delta." + name).Value()
}

// TestDeltaMatchesFullDifferential is the tentpole property: across a
// drifting slot sequence, delta-mode plans must be digest-identical to
// independent full solves of the same inputs, for serial and parallel
// schedulers alike.
func TestDeltaMatchesFullDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := lineWorld(24, 1.0, 10, 30)
			slots := deltaDriftSlots(w, 200, 24, 42)

			sDelta, err := New(w, deltaParams(workers))
			if err != nil {
				t.Fatalf("New(delta): %v", err)
			}
			full := DefaultParams()
			full.Workers = workers
			sFull, err := New(w, full)
			if err != nil {
				t.Fatalf("New(full): %v", err)
			}

			for i, slot := range slots {
				dp, err := sDelta.ScheduleRound(slot.d, slot.cons)
				if err != nil {
					t.Fatalf("slot %d: delta ScheduleRound: %v", i, err)
				}
				fp, err := sFull.ScheduleRound(slot.d.Clone(), slot.cons)
				if err != nil {
					t.Fatalf("slot %d: full ScheduleRound: %v", i, err)
				}
				if dp.Digest() != fp.Digest() {
					t.Fatalf("slot %d: delta digest %x != full digest %x (delta round=%v replayed=%v patched=%d)",
						i, dp.Digest(), fp.Digest(), dp.Stats.DeltaRound, dp.Stats.SweepReplayed, dp.Stats.PatchedRows)
				}
				checkPlanInvariants(t, effWorld(w, slot.cons), slot.d, dp)
				if i == 0 && (dp.Stats.DeltaRound || dp.Stats.DeltaFallback) {
					t.Errorf("slot 0 marked DeltaRound=%v DeltaFallback=%v; want a plain cold full solve",
						dp.Stats.DeltaRound, dp.Stats.DeltaFallback)
				}
				if i > 0 && !dp.Stats.DeltaRound {
					t.Errorf("slot %d not a delta round despite threshold 1", i)
				}
			}

			if got := deltaCount(sDelta, "rounds"); got != int64(len(slots)-1) {
				t.Errorf("core.delta.rounds = %d, want %d (every slot but the cold one)", got, len(slots)-1)
			}
			if deltaCount(sDelta, "sweep_replays") == 0 {
				t.Error("no sweep replays across unchanged slots")
			}
			if got := deltaCount(sDelta, "fallbacks"); got != 0 {
				t.Errorf("core.delta.fallbacks = %d, want 0 at threshold 1", got)
			}
		})
	}
}

// TestDeltaUnchangedSlotPatchesNothing locks the zero-work fast path:
// an identical slot restores the recorded sweep without calling the
// solver, skips stage A and patches no rows, and its plan is a fresh
// full solve's, digest and Stats alike, with the solve's MCMF path
// count published again.
func TestDeltaUnchangedSlotPatchesNothing(t *testing.T) {
	w := lineWorld(16, 1.0, 10, 30)
	d := randomDemand(w, 400, 150, 7)
	s, err := New(w, deltaParams(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.ScheduleRound(d.Clone(), Constraints{}); err != nil {
		t.Fatalf("slot 0: %v", err)
	}
	paths := s.params.Obs.Counter("core.mcmf_paths")
	solvedPaths := paths.Value()
	orig := solveFn
	solveFn = func(*mcmf.Graph, int, int) (mcmf.Result, error) {
		t.Error("the solver ran in a replayed round")
		return mcmf.Result{}, fmt.Errorf("solver called in a replayed round")
	}
	plan, err := s.ScheduleRound(d.Clone(), Constraints{})
	solveFn = orig
	if err != nil {
		t.Fatalf("slot 1: %v", err)
	}
	if !plan.Stats.DeltaRound || !plan.Stats.SweepReplayed {
		t.Errorf("DeltaRound=%v SweepReplayed=%v; want both on an unchanged slot",
			plan.Stats.DeltaRound, plan.Stats.SweepReplayed)
	}
	if plan.Stats.PatchedRows != 0 {
		t.Errorf("PatchedRows = %d on an unchanged slot, want 0", plan.Stats.PatchedRows)
	}
	if got := paths.Value() - solvedPaths; solvedPaths == 0 || got != solvedPaths {
		t.Errorf("replayed round published %d MCMF paths, the solve %d", got, solvedPaths)
	}

	sFull, err := New(w, DefaultParams())
	if err != nil {
		t.Fatalf("New(full): %v", err)
	}
	fp, err := sFull.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatalf("full reference: %v", err)
	}
	if fp.Stats.Iterations == 0 || fp.Stats.MovedFlow == 0 {
		t.Fatalf("full solve ran %d θ steps moving %d; the slot does not exercise the sweep", fp.Stats.Iterations, fp.Stats.MovedFlow)
	}
	if plan.Digest() != fp.Digest() {
		t.Errorf("replayed digest %x != full digest %x", plan.Digest(), fp.Digest())
	}
	got := plan.Stats
	got.DeltaRound, got.SweepReplayed = false, false
	got.Phases, fp.Stats.Phases = obs.PhaseTimings{}, obs.PhaseTimings{}
	if got != fp.Stats {
		t.Errorf("replayed Stats\n%+v\nfull solve's\n%+v", got, fp.Stats)
	}
}

// TestDeltaDriftFallback checks the drift threshold: a slot touching
// more than DeltaThreshold of the hotspots triggers a full re-solve.
func TestDeltaDriftFallback(t *testing.T) {
	w := lineWorld(12, 1.0, 10, 30)
	d := randomDemand(w, 360, 100, 5)
	p := deltaParams(1)
	p.DeltaThreshold = 0.25
	s, err := New(w, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.ScheduleRound(d.Clone(), Constraints{}); err != nil {
		t.Fatalf("slot 0: %v", err)
	}

	// Small drift: one hotspot dirty out of 12 (8% <= 25%).
	small := d.Clone()
	small.Add(0, 99, 1)
	plan, err := s.ScheduleRound(small, Constraints{})
	if err != nil {
		t.Fatalf("small drift: %v", err)
	}
	if !plan.Stats.DeltaRound || plan.Stats.DeltaFallback {
		t.Errorf("small drift: DeltaRound=%v DeltaFallback=%v; want a delta round",
			plan.Stats.DeltaRound, plan.Stats.DeltaFallback)
	}

	// Heavy drift: every hotspot dirty.
	heavy := small.Clone()
	for h := 0; h < 12; h++ {
		heavy.Add(trace.HotspotID(h), trace.VideoID(h), 2)
	}
	plan, err = s.ScheduleRound(heavy, Constraints{})
	if err != nil {
		t.Fatalf("heavy drift: %v", err)
	}
	if plan.Stats.DeltaRound || !plan.Stats.DeltaFallback {
		t.Errorf("heavy drift: DeltaRound=%v DeltaFallback=%v; want a drift fallback",
			plan.Stats.DeltaRound, plan.Stats.DeltaFallback)
	}
	if got := deltaCount(s, "fallbacks"); got != 1 {
		t.Errorf("core.delta.fallbacks = %d, want 1", got)
	}
}

// TestDeltaParamsValidate covers DeltaThreshold's validation.
func TestDeltaParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"negative threshold", func(p *Params) { p.DeltaThreshold = -0.1 }},
		{"threshold above one", func(p *Params) { p.DeltaThreshold = 1.5 }},
		{"delta with BPeak", func(p *Params) { p.DeltaThreshold = 0.5; p.BPeak = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted invalid delta params")
			}
		})
	}
	good := DefaultParams()
	good.DeltaThreshold = DefaultDeltaThreshold
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid delta params: %v", err)
	}
}

// TestDeltaDegradedRoundNotReplayed injects a failing solver for the
// cold round: the recovered (degraded) sweep must not be replayed, and
// once the solver heals the delta rounds must re-converge with full
// solves.
func TestDeltaDegradedRoundNotReplayed(t *testing.T) {
	w := lineWorld(8, 1.0, 10, 30)
	// Half the hotspots overloaded, half idle, so the sweep actually
	// solves (an all-over or all-under partition skips the solver).
	d := NewDemand(8)
	for h := 0; h < 4; h++ {
		for v := 0; v < 20; v++ {
			d.Add(trace.HotspotID(h), trace.VideoID(h*20+v), 1)
		}
	}
	s, err := New(w, deltaParams(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sFull, err := New(w, DefaultParams())
	if err != nil {
		t.Fatalf("New(full): %v", err)
	}

	orig := solveFn
	solveFn = func(*mcmf.Graph, int, int) (mcmf.Result, error) {
		return mcmf.Result{}, fmt.Errorf("injected solver failure")
	}
	plan, err := s.ScheduleRound(d.Clone(), Constraints{})
	solveFn = orig
	if err != nil {
		t.Fatalf("degraded slot: %v", err)
	}
	if !plan.Degraded {
		t.Fatal("cold round with failing solver not degraded")
	}

	// Same demand, healed solver: the degraded record must not replay.
	plan, err = s.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatalf("healed slot: %v", err)
	}
	if plan.Stats.SweepReplayed {
		t.Error("degraded sweep record was replayed")
	}
	if !plan.Stats.DeltaRound {
		t.Error("healed slot not a delta round")
	}
	fp, err := sFull.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatalf("full reference: %v", err)
	}
	if plan.Digest() != fp.Digest() {
		t.Error("healed delta plan diverges from full solve")
	}

	// Third identical slot: now the healthy record replays.
	plan, err = s.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatalf("replay slot: %v", err)
	}
	if !plan.Stats.SweepReplayed {
		t.Error("healthy record not replayed on an unchanged slot")
	}
	if plan.Digest() != fp.Digest() {
		t.Error("replayed delta plan diverges from full solve")
	}
}
