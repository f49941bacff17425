package scheme

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Factory builds fresh instances of one policy and records whether
// they may schedule a run's timeslots concurrently.
type Factory struct {
	// New returns a new policy instance; the simulator asks for one per
	// worker.
	New func() sim.Scheduler
	// SlotsIndependent reports that an instance's decision for a slot
	// depends only on that slot, so several instances may each take a
	// share of the slots. The zero value is the safe one: a policy that
	// carries state from slot to slot must see every slot, in order.
	SlotsIndependent bool
}

// Run replays the trace under the factory's policy on up to workers
// goroutines (0 = every core); a policy whose slots are not independent
// runs on one, whatever is asked for. Metrics are identical for every
// worker count.
func (f Factory) Run(world *trace.World, tr *trace.Trace, workers int, opts sim.Options) (*sim.Metrics, error) {
	if !f.SlotsIndependent {
		workers = 1
	}
	return sim.RunParallel(world, tr, f.New, workers, opts)
}

// schemes is the scheme table: every name cdnsim -scheme and a
// scenario's run.scheme accept, in the order usage strings list them.
// independent reports whether the policy's slots may be scheduled
// concurrently; the others carry state from slot to slot.
var schemes = []struct {
	name        string
	independent func(core.Params) bool
	new         func(radiusKm float64, params core.Params, sp shard.Params, workers int) sim.Scheduler
}{
	// Delta rounds warm-start from the previous slot's state.
	{"rbcaer", func(p core.Params) bool { return p.DeltaThreshold == 0 }, newRBCAerScheme},
	{"nearest", always, func(float64, core.Params, shard.Params, int) sim.Scheduler { return Nearest{} }},
	{"random", always, func(radiusKm float64, _ core.Params, _ shard.Params, _ int) sim.Scheduler {
		return Random{RadiusKm: radiusKm}
	}},
	{"lp", always, func(float64, core.Params, shard.Params, int) sim.Scheduler { return LPBased{} }},
	{"hier", always, func(float64, core.Params, shard.Params, int) sim.Scheduler { return NewHierarchical(0) }},
	{"p2c", always, func(radiusKm float64, _ core.Params, _ shard.Params, _ int) sim.Scheduler {
		return PowerOfTwo{RadiusKm: radiusKm}
	}},
}

func always(core.Params) bool { return true }

// newRBCAerScheme builds the flat policy, or the sharded one when sp
// sets a grid cell size. Sharded, shard-level concurrency replaces
// intra-round fan-out: the shards share the workers and each shard's
// solver (params, as sp.Local) runs serial. Zero params select
// core.DefaultParams.
func newRBCAerScheme(_ float64, params core.Params, sp shard.Params, workers int) sim.Scheduler {
	if params == (core.Params{}) {
		params = core.DefaultParams()
	}
	if sp.CellKm > 0 {
		params.Workers = 1
		sp.Local, sp.Workers, sp.Obs = params, workers, params.Obs
		return NewSharded(sp)
	}
	params.Workers = workers
	return NewRBCAer(params)
}

// Names lists the scheme names Lookup accepts, in table order.
func Names() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// Lookup resolves a scheme name to its policy factory. radiusKm is the
// random/p2c routing radius; params, sp and workers configure rbcaer
// only (see newRBCAerScheme).
func Lookup(name string, radiusKm float64, params core.Params, sp shard.Params, workers int) (Factory, error) {
	for _, s := range schemes {
		if s.name != name {
			continue
		}
		return Factory{
			New:              func() sim.Scheduler { return s.new(radiusKm, params, sp, workers) },
			SlotsIndependent: s.independent(params),
		}, nil
	}
	return Factory{}, fmt.Errorf("unknown scheme %q (want %s)", name, strings.Join(Names(), ", "))
}
