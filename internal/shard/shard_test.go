package shard

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/invariant"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func genWorld(t *testing.T, hotspots, videos, users, requests, slots int) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = hotspots
	cfg.NumVideos = videos
	cfg.NumUsers = users
	cfg.NumRequests = requests
	cfg.Slots = slots
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// slotDemands builds one core.Demand per trace slot.
func slotDemands(t *testing.T, world *trace.World, tr *trace.Trace) []*core.Demand {
	t.Helper()
	index, err := world.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	bySlot := tr.BySlot()
	out := make([]*core.Demand, len(bySlot))
	for s, reqs := range bySlot {
		ctx, err := sim.BuildSlotContext(world, index, s, reqs, stats.SplitRand(1, "shard-test"))
		if err != nil {
			t.Fatalf("BuildSlotContext slot %d: %v", s, err)
		}
		out[s] = ctx.Demand
	}
	return out
}

func localParams() core.Params {
	p := core.DefaultParams()
	p.Workers = 1
	return p
}

// TestShardedMatchesGlobalSingleShard proves the differential anchor:
// with a single shard covering the whole world, the sharded round is
// digest- and byte-identical to a plain global core.ScheduleRound.
func TestShardedMatchesGlobalSingleShard(t *testing.T) {
	world, tr := genWorld(t, 50, 1500, 3000, 9000, 4)
	demands := slotDemands(t, world, tr)

	global, err := core.New(world, localParams())
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	// A grid cell larger than the world collapses to one shard.
	sharded, err := New(world, Params{CellKm: 1000})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	if sharded.NumShards() != 1 {
		t.Fatalf("expected 1 shard, got %d", sharded.NumShards())
	}

	for s, d := range demands {
		gp, err := global.ScheduleRound(d, core.Constraints{})
		if err != nil {
			t.Fatalf("slot %d global: %v", s, err)
		}
		sp, err := sharded.ScheduleRound(d, core.Constraints{})
		if err != nil {
			t.Fatalf("slot %d sharded: %v", s, err)
		}
		if gp.Digest() != sp.Digest() {
			t.Fatalf("slot %d: digest mismatch: global %x sharded %x", s, gp.Digest(), sp.Digest())
		}
		if !bytes.Equal(gp.Canonical(), sp.Canonical()) {
			t.Fatalf("slot %d: canonical bytes differ", s)
		}
		// The single-shard ledger must match the global one exactly.
		g, h := gp.Stats, sp.Stats
		if g.MaxFlow != h.MaxFlow || g.MovedFlow != h.MovedFlow ||
			g.UnrealizedFlow != h.UnrealizedFlow || g.StrandedToCDN != h.StrandedToCDN ||
			g.Replicas != h.Replicas {
			t.Fatalf("slot %d: ledger mismatch: global %+v sharded %+v", s, g, h)
		}
		if diff := g.Omega1Km - h.Omega1Km; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("slot %d: omega mismatch: %v vs %v", s, g.Omega1Km, h.Omega1Km)
		}
	}
}

// TestShardedDeterministicAcrossWorkers proves k-shard merged plans are
// byte-identical for any shard-pool worker count, and every merged plan
// passes the invariant checker.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	world, tr := genWorld(t, 60, 1500, 3000, 9000, 4)
	demands := slotDemands(t, world, tr)

	var ref [][]byte
	for _, workers := range []int{1, 4, 8} {
		s, err := New(world, Params{CellKm: 4, Workers: workers})
		if err != nil {
			t.Fatalf("New(workers=%d): %v", workers, err)
		}
		if s.NumShards() < 2 {
			t.Fatalf("expected a multi-shard partition, got %d", s.NumShards())
		}
		for slot, d := range demands {
			plan, err := s.ScheduleRound(d, core.Constraints{})
			if err != nil {
				t.Fatalf("workers=%d slot %d: %v", workers, slot, err)
			}
			if workers == 1 {
				ref = append(ref, plan.Canonical())
				if err := invariant.CheckPlan(world, d, core.Constraints{}, plan); err != nil {
					t.Fatalf("slot %d: merged plan violates invariants: %v", slot, err)
				}
				continue
			}
			if !bytes.Equal(plan.Canonical(), ref[slot]) {
				t.Fatalf("workers=%d slot %d: plan bytes differ from workers=1", workers, slot)
			}
		}
	}
}

// TestShardedDeltaMatchesShardedFull proves per-shard delta state keeps
// the merged plan digest-identical to sharded full solves over a
// drifting demand sequence. The drift touches two hotspots a step, so
// at this threshold a small shard that holds one falls back while the
// large ones patch, and untouched shards replay.
func TestShardedDeltaMatchesShardedFull(t *testing.T) {
	world, tr := genWorld(t, 50, 1500, 3000, 9000, 2)
	base := slotDemands(t, world, tr)[0]
	demands := driftDemands(base, 12)

	deltaLocal := localParams()
	deltaLocal.DeltaThreshold = 0.3

	full, err := New(world, Params{CellKm: 4, Local: localParams()})
	if err != nil {
		t.Fatalf("New(full): %v", err)
	}
	reg := obs.NewRegistry()
	delta, err := New(world, Params{CellKm: 4, Local: deltaLocal, Workers: 4, Obs: reg})
	if err != nil {
		t.Fatalf("New(delta): %v", err)
	}
	for s, d := range demands {
		fp, err := full.ScheduleRound(d, core.Constraints{})
		if err != nil {
			t.Fatalf("round %d full: %v", s, err)
		}
		dp, err := delta.ScheduleRound(d, core.Constraints{})
		if err != nil {
			t.Fatalf("round %d delta: %v", s, err)
		}
		if fp.Digest() != dp.Digest() {
			t.Fatalf("round %d: delta digest diverged from full", s)
		}
	}
	for _, name := range []string{"rounds", "sweep_replays", "patched_rows", "fallbacks"} {
		if reg.Counter("core.delta."+name).Value() == 0 {
			t.Errorf("core.delta.%s = 0; the drift never exercised it", name)
		}
	}
}

// driftDemands is a slow-drift workload: each step clones its
// predecessor and shuffles ~10% of two hotspots' request mass between
// videos already in their working sets, keeping totals fixed.
func driftDemands(base *core.Demand, steps int) []*core.Demand {
	rng := rand.New(rand.NewSource(17))
	out := make([]*core.Demand, steps)
	out[0] = base
	for s := 1; s < steps; s++ {
		d := out[s-1].Clone()
		for k := 0; k < 2; k++ {
			h := rng.Intn(d.NumHotspots())
			row := d.VideoCounts(h)
			if len(row) < 2 {
				continue
			}
			videos := make([]int, 0, len(row))
			for v := range row {
				videos = append(videos, v)
			}
			slices.Sort(videos)
			move := d.Totals[h] / 10
			for i := 0; move > 0 && i < 64; i++ {
				src := videos[rng.Intn(len(videos))]
				dst := videos[rng.Intn(len(videos))]
				if src == dst || row[src] == 0 {
					continue
				}
				n := move
				if row[src] < n {
					n = row[src]
				}
				row[src] -= n
				if row[src] == 0 {
					delete(row, src)
				}
				row[dst] += n
				move -= n
			}
			d.Clear(h)
			for v, n := range row {
				d.Add(trace.HotspotID(h), trace.VideoID(v), n)
			}
		}
		out[s] = d
	}
	return out
}

// TestShardedDemandNotMutated: the sharded round must not mutate the
// caller's demand (the delta caller contract depends on it).
func TestShardedDemandNotMutated(t *testing.T) {
	world, tr := genWorld(t, 40, 1000, 2000, 5000, 1)
	d := slotDemands(t, world, tr)[0]
	snapshot := d.Clone()
	s, err := New(world, Params{CellKm: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.ScheduleRound(d, core.Constraints{}); err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	if !slices.Equal(d.Totals, snapshot.Totals) {
		t.Fatal("ScheduleRound mutated demand totals")
	}
	for h := 0; h < d.NumHotspots(); h++ {
		if !maps.Equal(d.VideoCounts(h), snapshot.VideoCounts(h)) {
			t.Fatalf("ScheduleRound mutated per-video demand at hotspot %d", h)
		}
	}
}

func TestShardedParamErrors(t *testing.T) {
	world, _ := genWorld(t, 10, 500, 500, 500, 1)
	cases := []struct {
		name  string
		world *trace.World
		p     Params
	}{
		{"nil world", nil, Params{}},
		{"negative cell", world, Params{CellKm: -1}},
	}
	for _, tc := range cases {
		if _, err := New(tc.world, tc.p); err == nil {
			t.Errorf("%s: New succeeded", tc.name)
		}
	}
}

// TestShardedRoundValidation drives the flat and the sharded round
// through one table of caller-contract violations: both read the
// contract from core.Constraints.Resolve, so both must refuse every
// case, and both must accept the clean round the cases are cut from.
func TestShardedRoundValidation(t *testing.T) {
	world, tr := genWorld(t, 20, 500, 1000, 2000, 1)
	d := slotDemands(t, world, tr)[0]
	m := len(world.Hotspots)
	flat, err := core.New(world, core.DefaultParams())
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	sharded, err := New(world, Params{CellKm: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rounds := map[string]func(*core.Demand, core.Constraints) (*core.Plan, error){
		"flat": flat.ScheduleRound, "sharded": sharded.ScheduleRound,
	}

	negDemand := d.Clone()
	negDemand.Add(0, 0, -negDemand.Totals[0]-1)
	shortRows := &core.Demand{Totals: slices.Clone(d.Totals)}
	negService := make([]int64, m)
	negService[0] = -5
	negCache := make([]int, m)
	negCache[0] = -1
	cases := []struct {
		name string
		d    *core.Demand
		cons core.Constraints
	}{
		{"nil demand", nil, core.Constraints{}},
		{"mis-sized demand", core.NewDemand(3), core.Constraints{}},
		{"mis-sized per-video rows", shortRows, core.Constraints{}},
		{"negative demand", negDemand, core.Constraints{}},
		{"mis-sized service", d, core.Constraints{Service: []int64{1}}},
		{"negative service", d, core.Constraints{Service: negService}},
		{"mis-sized cache", d, core.Constraints{Cache: []int{1}}},
		{"negative cache", d, core.Constraints{Cache: negCache}},
	}
	for name, round := range rounds {
		if _, err := round(d, core.Constraints{}); err != nil {
			t.Errorf("%s: clean round refused: %v", name, err)
		}
		for _, tc := range cases {
			if _, err := round(tc.d, tc.cons); err == nil {
				t.Errorf("%s: %s accepted", name, tc.name)
			}
		}
	}
}

// TestShardedObsPublish exercises the observability surface: a round
// with a registry attached publishes the shard counters, gauge, solve
// timers, and histograms, and the accessors expose the partition.
func TestShardedObsPublish(t *testing.T) {
	world, tr := genWorld(t, 30, 800, 1500, 4000, 1)
	d := slotDemands(t, world, tr)[0]
	reg := obs.NewRegistry()
	s, err := New(world, Params{CellKm: 4, Obs: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.World() != world {
		t.Error("World() does not return the build world")
	}
	if s.Partition() == nil || s.Partition().NumRegions() != s.NumShards() {
		t.Errorf("Partition() regions = %v, want %d shards", s.Partition(), s.NumShards())
	}
	plan, err := s.ScheduleRound(d, core.Constraints{})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	if plan == nil {
		t.Fatal("nil plan")
	}
	if got := reg.Counter("shard.rounds").Value(); got != 1 {
		t.Errorf("shard.rounds = %d, want 1", got)
	}
	snap := reg.Snapshot(true)
	gaugeOK := false
	for _, g := range snap.Gauges {
		if g.Name == "shard.count" && g.Value == int64(s.NumShards()) {
			gaugeOK = true
		}
	}
	if !gaugeOK {
		t.Errorf("shard.count gauge missing or wrong (want %d): %+v", s.NumShards(), snap.Gauges)
	}
	timers := map[string]bool{}
	for _, tm := range snap.Timers {
		timers[tm.Name] = true
	}
	for _, want := range []string{"shard.phase.solve", "shard.phase.solve.000", "shard.phase.boundary"} {
		if !timers[want] {
			t.Errorf("timer %q not published; have %v", want, snap.Timers)
		}
	}
	// Deterministic snapshots exclude wall-clock instruments entirely.
	if n := len(reg.Snapshot(false).Timers); n != 0 {
		t.Errorf("deterministic snapshot carries %d timers", n)
	}
}
