package shard

import (
	"fmt"

	"repro/internal/scheme"
	"repro/internal/sim"
)

// Policy adapts the sharded Scheduler to the simulator interface,
// mirroring scheme.RBCAer: one sharded round per slot against the
// slot's effective (fault-degraded) capacities, materialised into
// per-request assignments.
type Policy struct {
	// Params configure the sharded scheduler built lazily on first use
	// (and rebuilt if the world changes).
	Params Params

	sched *Scheduler
}

// NewPolicy returns a simulator policy running sharded rounds with p.
func NewPolicy(p Params) *Policy { return &Policy{Params: p} }

// Name implements sim.Scheduler.
func (p *Policy) Name() string { return "RBCAer-sharded" }

// Sched exposes the underlying sharded scheduler (nil before the first
// slot). Used by tests to inspect the partition.
func (p *Policy) Sched() *Scheduler { return p.sched }

// Schedule implements sim.Scheduler.
func (p *Policy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("shard: nil slot context")
	}
	if p.sched == nil || p.sched.World() != ctx.World {
		sched, err := New(ctx.World, p.Params)
		if err != nil {
			return nil, err
		}
		p.sched = sched
	}
	return scheme.ScheduleSlot(ctx, p.sched.ScheduleRound)
}
