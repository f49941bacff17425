// Package core implements the paper's primary contribution: the
// Request-Balancing and Content-Aggregation scheduler (RBCAer) for
// crowdsourced CDNs.
//
// Each scheduling round (timeslot) takes the per-hotspot, per-video
// demand aggregated at each request's nearest hotspot and produces:
//
//   - inter-hotspot workload flows f_ij moving surplus requests from
//     overloaded to under-utilised hotspots (Algorithm 1: an iterative
//     θ-bounded min-cost max-flow on the content-aggregation network
//     Gc, falling back to the plain balancing network Gd),
//   - a per-video redirection plan realising those flows (Procedure 1),
//     and
//   - the content placement y_vj (which videos each hotspot prefetches),
//     minimising replication cost by aggregating similar hotspots'
//     redirected demand onto shared replicas.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// GuideCostMode selects the cost of the guide-node → target edge in the
// content-aggregation network Gc.
type GuideCostMode int

const (
	// GuideCostAvgDistance prices the guide edge at the average
	// distance from the cluster's overloaded hotspots to the target —
	// the evident intent of the paper's formula (see DESIGN.md).
	GuideCostAvgDistance GuideCostMode = iota + 1
	// GuideCostAvgCapacity prices the guide edge with the literal
	// formula of Sec. IV-B, Σφ_ij/‖Hjk‖ (average pair capacity).
	GuideCostAvgCapacity
)

// String implements fmt.Stringer.
func (m GuideCostMode) String() string {
	switch m {
	case GuideCostAvgDistance:
		return "avg-distance"
	case GuideCostAvgCapacity:
		return "avg-capacity"
	default:
		return fmt.Sprintf("guide-cost(%d)", int(m))
	}
}

// Params are RBCAer's tuning parameters. Defaults follow the paper's
// Sec. V setup.
type Params struct {
	// Theta1, Theta2, DeltaD drive the latency-threshold sweep of
	// Algorithm 1: edges <i,j> enter the flow network only when
	// d_ij < θ, with θ growing from Theta1 to Theta2 in DeltaD steps.
	Theta1 float64
	Theta2 float64
	DeltaD float64

	// ClusterCut is the maximum content-aware distance Jd within a
	// cluster. The paper uses 0.5, tuned to its trace where nearby
	// hotspots reach Jaccard 0.8; our synthetic similarities top out
	// near 0.6, so the default is recalibrated to 0.75 (intra-cluster
	// Jaccard >= 0.25, above the nearby-pair median) — see
	// EXPERIMENTS.md. The abl-cluster ablation sweeps this knob.
	ClusterCut float64
	// TopFraction sizes each hotspot's content signature: the top
	// fraction of its demanded videos (the paper's top-20%).
	TopFraction float64
	// Linkage is the hierarchical-clustering linkage. Only
	// cluster.Complete is accepted: it guarantees the intra-cluster
	// distance bound.
	Linkage cluster.Linkage

	// GuideCost selects the guide-edge pricing (see GuideCostMode).
	GuideCost GuideCostMode

	// BPeak caps the number of replicas pushed in the greedy local
	// cache-fill stage of Procedure 1 (the paper's "server load
	// reaches the peak traffic observed"). 0 means unlimited.
	BPeak int64
	// FillOverprovision scales the serviceable-demand budget of the
	// greedy cache-fill loop. 1 (and 0, the zero value) is the exact
	// budget; >1 prefetches beyond what capacity can serve — wasteful
	// under oracle demand but a robustness buffer when scheduling on
	// *predicted* demand (see the abl-prediction experiment).
	FillOverprovision float64

	// DisableGuides skips content aggregation and balances on Gd only
	// (ablation: pure load balancing).
	DisableGuides bool
	// SingleShotTheta replaces the θ sweep with one round at Theta2
	// (ablation: value of the incremental schedule).
	SingleShotTheta bool

	// Workers bounds the parallelism of one scheduling round: the
	// over×under pairwise distances behind the θ2 candidate rows and the
	// Jaccard distance matrix fed to clustering fan out over this many
	// goroutines. 0 (the zero
	// value) selects runtime.GOMAXPROCS(0); 1 forces the serial path.
	// The fan-out uses fixed work partitions writing into disjoint
	// preallocated ranges, so plans are identical for every value.
	Workers int

	// DeltaThreshold enables incremental delta scheduling when > 0:
	// the scheduler retains the previous round's demand snapshot, flow
	// solution, and over/under partition, and re-solves only what a
	// demand diff invalidates, reusing the rest verbatim (see
	// DESIGN.md §12). A round falls back to a full solve when the
	// fraction of hotspots whose demand changed exceeds the threshold
	// (1 disables drift fallback entirely). Delta rounds are certified
	// digest-identical to full solves by the differential suite.
	//
	// Enabling delta mode imposes a caller contract: the *Demand passed
	// to ScheduleRound is retained by reference until the next round and
	// must not be mutated afterwards. DeltaThreshold is incompatible with BPeak > 0 (the replica cap is a global budget
	// that per-hotspot patching cannot preserve).
	DeltaThreshold float64
	// FullSolveEvery forces a periodic full solve every N delta rounds
	// regardless of drift (0 disables the periodic fallback). Only
	// meaningful when DeltaThreshold > 0.
	FullSolveEvery int
	// DeltaVerify shadow-runs the full solver alongside every delta
	// round and compares Plan.Digest(); on mismatch the full plan wins,
	// the retained delta state is dropped, and a verify-mismatch counter
	// is published. Expensive — a debugging/soak aid, not a production
	// setting.
	DeltaVerify bool

	// Obs, when non-nil, receives the round's metrics: logical
	// counters and histograms (deterministic for any Workers count)
	// plus wall-clock phase timers (core.phase.*, nondeterministic and
	// excluded from the registry's deterministic snapshot). Nil
	// disables metric publication at zero cost on the hot path.
	Obs *obs.Registry
	// RecordEvents, when set, makes every round record its structured
	// trace events (θ-sweep iterations, MCMF solve outcomes, degraded
	// transitions, round summary) into Plan.Events for a tracer to
	// flush. Off (the zero value) skips event assembly entirely.
	RecordEvents bool
}

// DefaultDeltaThreshold is the customary drift-fallback fraction for
// delta mode: a delta round re-solves from scratch when more than a
// quarter of the hotspots' demand changed since the previous slot.
const DefaultDeltaThreshold = 0.25

// DefaultParams returns the paper's evaluation parameters:
// θ1 = 0.5 km, θ2 = 1.5 km, δd = 0.5 km, top-20% signatures, complete
// linkage, average-distance guide pricing — with the cluster cut
// recalibrated to this repository's trace (see Params.ClusterCut).
func DefaultParams() Params {
	return Params{
		Theta1:      0.5,
		Theta2:      1.5,
		DeltaD:      0.5,
		ClusterCut:  0.75,
		TopFraction: 0.2,
		Linkage:     cluster.Complete,
		GuideCost:   GuideCostAvgDistance,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Theta1 < 0 || p.Theta2 < p.Theta1 {
		return fmt.Errorf("core: need 0 <= Theta1 <= Theta2, got %v, %v", p.Theta1, p.Theta2)
	}
	if p.DeltaD <= 0 {
		return fmt.Errorf("core: DeltaD must be positive, got %v", p.DeltaD)
	}
	if p.ClusterCut < 0 || p.ClusterCut > 1 {
		return fmt.Errorf("core: ClusterCut must be in [0,1], got %v", p.ClusterCut)
	}
	if p.TopFraction <= 0 || p.TopFraction > 1 {
		return fmt.Errorf("core: TopFraction must be in (0,1], got %v", p.TopFraction)
	}
	if p.Linkage != cluster.Complete {
		return fmt.Errorf("core: unknown linkage %v", p.Linkage)
	}
	switch p.GuideCost {
	case GuideCostAvgDistance, GuideCostAvgCapacity:
	default:
		return fmt.Errorf("core: unknown guide cost mode %v", p.GuideCost)
	}
	if p.BPeak < 0 {
		return fmt.Errorf("core: negative BPeak %d", p.BPeak)
	}
	if p.FillOverprovision < 0 {
		return fmt.Errorf("core: negative FillOverprovision %v", p.FillOverprovision)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", p.Workers)
	}
	if p.DeltaThreshold < 0 || p.DeltaThreshold > 1 {
		return fmt.Errorf("core: DeltaThreshold must be in [0,1], got %v", p.DeltaThreshold)
	}
	if p.FullSolveEvery < 0 {
		return fmt.Errorf("core: negative FullSolveEvery %d", p.FullSolveEvery)
	}
	if p.DeltaThreshold > 0 && p.BPeak > 0 {
		return fmt.Errorf("core: DeltaThreshold is incompatible with BPeak > 0 (global replica cap cannot be patched per hotspot)")
	}
	return nil
}

// Demand is one timeslot's request demand aggregated at each request's
// nearest hotspot (λ_h and λ_hv in the paper). It owns its per-video
// representation: every other package reads and edits it through the
// methods below, and writes Totals through them only.
type Demand struct {
	// perVideo[h][v] is the number of requests for video v aggregated
	// at hotspot h. An entry exists from its first Add (whatever the
	// count) until Move empties it or Clear drops its row.
	perVideo []map[trace.VideoID]int64
	// Totals[h] is λ_h = Σ_v Count(h, v). Read-only outside this
	// package.
	Totals []int64
}

// NewDemand returns an empty demand over numHotspots hotspots.
func NewDemand(numHotspots int) *Demand {
	return &Demand{
		perVideo: make([]map[trace.VideoID]int64, numHotspots),
		Totals:   make([]int64, numHotspots),
	}
}

// Add records n requests for video v aggregated at hotspot h.
func (d *Demand) Add(h trace.HotspotID, v trace.VideoID, n int64) {
	if d.perVideo[h] == nil {
		d.perVideo[h] = make(map[trace.VideoID]int64)
	}
	d.perVideo[h][v] += n
	d.Totals[h] += n
}

// NumHotspots returns the hotspot count the demand covers.
func (d *Demand) NumHotspots() int { return len(d.Totals) }

// Count returns λ_hv, the requests for video v aggregated at hotspot h.
func (d *Demand) Count(h int, v trace.VideoID) int64 { return d.perVideo[h][v] }

// Each calls fn once per entry of hotspot h, in no particular order.
// fn must not edit d.
func (d *Demand) Each(h int, fn func(v trace.VideoID, n int64)) {
	for v, n := range d.perVideo[h] {
		fn(v, n)
	}
}

// Move shifts amt requests for video v from hotspot src to hotspot tgt.
// A source entry it empties is removed, so it no longer counts towards
// the hotspot's distinct videos.
func (d *Demand) Move(src, tgt int, v trace.VideoID, amt int64) {
	if d.perVideo[src][v] == amt {
		delete(d.perVideo[src], v)
	} else {
		d.perVideo[src][v] -= amt
	}
	d.Totals[src] -= amt
	d.Add(trace.HotspotID(tgt), v, amt)
}

// Clear drops every entry of hotspot h.
func (d *Demand) Clear(h int) {
	d.perVideo[h] = nil
	d.Totals[h] = 0
}

// Merge folds src, a demand over the same hotspots, into d and consumes
// it: a hotspot d has no entries for adopts src's row whole, so src must
// not be used afterwards. Merging demands whose hotspots are disjoint
// is O(hotspots), whatever they hold.
func (d *Demand) Merge(src *Demand) {
	for h, row := range src.perVideo {
		if len(d.perVideo[h]) == 0 {
			d.perVideo[h] = row
		} else {
			for v, n := range row {
				d.perVideo[h][v] += n
			}
		}
		d.Totals[h] += src.Totals[h]
	}
}

// VideoCounts returns hotspot h's demand keyed by plain int video ids,
// the form the similarity helpers consume.
func (d *Demand) VideoCounts(h int) map[int]int64 {
	out := make(map[int]int64, len(d.perVideo[h]))
	for v, n := range d.perVideo[h] {
		out[int(v)] = n
	}
	return out
}

// Clone returns a deep copy.
func (d *Demand) Clone() *Demand {
	out := NewDemand(len(d.Totals))
	copy(out.Totals, d.Totals)
	for h, m := range d.perVideo {
		if m == nil {
			continue
		}
		cp := make(map[trace.VideoID]int64, len(m))
		for v, n := range m {
			cp[v] = n
		}
		out.perVideo[h] = cp
	}
	return out
}

// FlowEdge is a realised inter-hotspot workload movement: Amount
// requests aggregated at From are redirected to To.
type FlowEdge struct {
	From   trace.HotspotID
	To     trace.HotspotID
	Amount int64
}

// Redirect moves Count requests for Video from hotspot From to To.
type Redirect struct {
	From  trace.HotspotID
	To    trace.HotspotID
	Video trace.VideoID
	Count int64
}

// Stats summarises one scheduling round, feeding the Fig. 9 analysis
// and the running-time/ablation benches.
type Stats struct {
	// MaxFlow is the theoretically movable workload
	// min(Σ_i∈Hs φ_i, Σ_j∈Ht φ_j).
	MaxFlow int64
	// MovedFlow is the workload actually moved by the θ sweep plus the
	// residual Gd pass.
	MovedFlow int64
	// UnrealizedFlow is moved flow Procedure 1 could not convert into
	// concrete per-video redirects (insufficient matching demand or
	// target cache space); it falls back to the CDN.
	UnrealizedFlow int64
	// Overloaded and Underutilized are |Hs| and |Ht|.
	Overloaded    int
	Underutilized int
	// Clusters is the number of content clusters.
	Clusters int
	// GuideNodes is the total number of flow-guide nodes inserted,
	// accumulated across every θ iteration of the sweep (the residual
	// Gd pass never inserts guides).
	GuideNodes int
	// DirectEdges is the total number of <i,j> candidate pairs
	// enumerated, accumulated across every θ iteration of the sweep
	// like GuideNodes (each iteration re-enumerates the pairs its θ
	// admits, so a pair within θ1 contributes once per iteration).
	// The residual Gd pass is not counted. For the per-θ pair count of
	// a single graph, see ThetaAnalysis.DirectEdges.
	DirectEdges int
	// Iterations is the number of θ rounds executed.
	Iterations int
	// Degraded reports that the round ran under degraded conditions:
	// an MCMF solve failed and was recovered. The plan is still complete and feasible; unmoved
	// surplus falls back to the CDN via OverflowToCDN.
	Degraded bool
	// RecoveredErrors counts MCMF solves (θ iterations or the residual
	// Gd pass) that failed — error or panic — and were recovered by
	// leaving their flow unmoved.
	RecoveredErrors int
	// StrandedToCDN is the total surplus workload routed to the origin
	// CDN server (Σ OverflowToCDN): demand the round could not balance
	// within θ2, could not realise into redirects, or abandoned when
	// degrading.
	StrandedToCDN int64
	// DistanceCalcs is the number of pairwise geo-distance evaluations
	// the round performed. The over×under distances are computed once,
	// the pairs within θ2 kept in a per-round cache that every θ
	// iteration and the residual Gd pass filter, so this is |Hs|·|Ht| —
	// independent of the number of θ iterations.
	DistanceCalcs int64
	// Replicas is the total number of video placements produced.
	Replicas int64
	// Omega1Km is the round's realised access-latency cost Ω1 in
	// distance units: Σ over redirects of count·d(from, to) plus
	// Σ over hotspots of OverflowToCDN[h]·CDNDistanceKm. Requests
	// served at their own aggregation hotspot contribute 0. The
	// paper's replication cost Ω2 is Stats.Replicas.
	Omega1Km float64
	// DeltaRound reports the round ran on the incremental delta path
	// (Params.DeltaThreshold > 0 and no fallback fired). The digest of a
	// delta plan is certified identical to the full solve's.
	DeltaRound bool
	// DeltaFallback reports a delta-mode round fell back to a full
	// solve (drift above DeltaThreshold, the FullSolveEvery period, or
	// a dropped retained state). The very first round of a delta-mode
	// scheduler is a cold full solve, not a fallback.
	DeltaFallback bool
	// SweepReplayed reports the round reused the previous round's θ-sweep
	// flow solution verbatim instead of re-running MCMF.
	SweepReplayed bool
	// PatchedRows is the number of per-hotspot plan rows (placement +
	// fill) rebuilt by a delta round; the remaining rows were reused.
	PatchedRows int
	// Phases is the round's wall-clock breakdown into the cluster /
	// balance / replicate phases. Populated only when observability is
	// enabled (Params.Obs or Params.RecordEvents); wall-clock values
	// are nondeterministic and never enter the determinism contract.
	Phases obs.PhaseTimings
}

// Plan is the output of one scheduling round.
type Plan struct {
	// Flows is the realised inter-hotspot flow f_ij.
	Flows []FlowEdge
	// Redirects is the per-video realisation of Flows.
	Redirects []Redirect
	// Placement[h] is the set of videos hotspot h prefetches (y_vh).
	Placement []similarity.Set
	// OverflowToCDN[h] is surplus workload at h that could not be
	// balanced within θ2 and is redirected to the origin CDN server.
	OverflowToCDN []int64
	// Degraded mirrors Stats.Degraded: the round ran under degraded
	// conditions (a recovered solver failure) and this is the best
	// partial plan, with stranded demand routed to the CDN.
	Degraded bool
	// Stats summarises the round.
	Stats Stats
	// Events is the round's structured trace, recorded in emission
	// order when Params.RecordEvents is set (nil otherwise). Slot
	// numbers are stamped by whoever flushes them to an obs.Tracer.
	Events []obs.Event
}
