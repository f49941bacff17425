package core

import (
	"time"

	"repro/internal/obs"
)

// roundObs gathers one scheduling round's instrumentation: wall-clock
// phase marks and, when event recording is on, the structured events
// destined for Plan.Events. The zero value is fully disabled and makes
// every method a cheap no-op, so the uninstrumented hot path pays only
// branch checks.
type roundObs struct {
	timing bool // collect wall-clock marks (metrics or events enabled)
	record bool // assemble Plan.Events
	events []obs.Event
}

func newRoundObs(p Params) roundObs {
	return roundObs{timing: p.Obs != nil || p.RecordEvents, record: p.RecordEvents}
}

// now returns a phase mark, or the zero time when disabled.
func (o *roundObs) now() time.Time {
	if o.timing {
		return time.Now()
	}
	return time.Time{}
}

// since returns the elapsed time from a now() mark (0 when disabled).
func (o *roundObs) since(t0 time.Time) time.Duration {
	if o.timing {
		return time.Since(t0)
	}
	return 0
}

// emit appends one trace event (slot -1: the simulator stamps slots
// when flushing to a tracer).
func (o *roundObs) emit(typ string, attrs ...obs.Attr) {
	if o.record {
		o.events = append(o.events, obs.Event{Type: typ, Slot: -1, Attrs: attrs})
	}
}

// publishRound folds one finished round's stats into the registry. All
// quantities are logical (deterministic); the wall-clock phase
// breakdown goes to timers, which stay out of the deterministic
// snapshot.
func publishRound(r *obs.Registry, st *Stats, mcmfPaths int64) {
	if r == nil {
		return
	}
	r.Counter("core.rounds").Inc()
	r.Counter("core.max_flow").Add(st.MaxFlow)
	r.Counter("core.moved_flow").Add(st.MovedFlow)
	r.Counter("core.unrealized_flow").Add(st.UnrealizedFlow)
	r.Counter("core.stranded_to_cdn").Add(st.StrandedToCDN)
	r.Counter("core.replicas").Add(st.Replicas)
	r.Counter("core.distance_calcs").Add(st.DistanceCalcs)
	r.Counter("core.theta_iterations").Add(int64(st.Iterations))
	r.Counter("core.guide_nodes").Add(int64(st.GuideNodes))
	r.Counter("core.direct_edges").Add(int64(st.DirectEdges))
	r.Counter("core.clusters").Add(int64(st.Clusters))
	r.Counter("core.recovered_errors").Add(int64(st.RecoveredErrors))
	r.Counter("core.mcmf_paths").Add(mcmfPaths)
	if st.Degraded {
		r.Counter("core.degraded_rounds").Inc()
	}
	r.Histogram("core.moved_flow_per_round", obs.PowersOf2Buckets(24)).Observe(st.MovedFlow)
	r.Histogram("core.replicas_per_round", obs.PowersOf2Buckets(24)).Observe(st.Replicas)
	r.Timer("core.phase.cluster").Observe(st.Phases.Cluster)
	r.Timer("core.phase.balance").Observe(st.Phases.Balance)
	r.Timer("core.phase.replicate").Observe(st.Phases.Replicate)
}
