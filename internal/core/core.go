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
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/obs"
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
	// the scheduler retains the previous round's demand snapshot, cluster
	// cut, θ-sweep outputs and replication outputs, and recomputes only
	// what a demand diff invalidates, reusing the rest verbatim (see
	// DESIGN.md §12). A round falls back to a full solve when the
	// fraction of hotspots whose inputs changed exceeds the threshold
	// (1 disables drift fallback entirely). Delta rounds are certified
	// digest-identical to full solves by the differential suite.
	//
	// Enabling delta mode imposes a caller contract: the *Demand passed
	// to ScheduleRound is retained by reference until the next round and
	// must not be mutated afterwards. DeltaThreshold is incompatible with
	// BPeak > 0 (the replica cap is a global budget that per-hotspot
	// patching cannot preserve).
	DeltaThreshold float64

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
	if p.DeltaThreshold > 0 && p.BPeak > 0 {
		return fmt.Errorf("core: DeltaThreshold is incompatible with BPeak > 0 (global replica cap cannot be patched per hotspot)")
	}
	return nil
}

// Demand is one timeslot's request demand aggregated at each request's
// nearest hotspot (λ_h and λ_hv in the paper). It owns its per-video
// representation: every other package reads and edits it through the
// methods below, and writes Totals through them only.
//
// Each hotspot's row is a run of (video, count) entries: a folded
// prefix, video-ascending with one entry per video, then the entries
// added since the last fold in arrival order. Add appends, in O(1);
// Fold orders and sums the tails. Readers give the same answers on a
// folded and an unfolded demand and never write to it — on an unfolded
// row they fold a copy — so a demand that is only read may be shared;
// owners fold it where they hand it over (the simulator's slot context,
// a frontend's slot), and the scheduler then reads the rows in place.
type Demand struct {
	rows []demandRow
	// Totals[h] is λ_h = Σ_v Count(h, v). Read-only outside this
	// package.
	Totals []int64
}

// demandRow is one hotspot's entries: entries[:folded] is the folded
// prefix. An entry exists from its first Add (whatever the count) until
// Move empties it or Clear drops the row.
type demandRow struct {
	entries []videoCount
	folded  int
}

// videoCount is one (video, count) entry of a demand row.
type videoCount struct {
	video trace.VideoID
	count int64
}

// NewDemand returns an empty demand over numHotspots hotspots.
func NewDemand(numHotspots int) *Demand {
	return &Demand{
		rows:   make([]demandRow, numHotspots),
		Totals: make([]int64, numHotspots),
	}
}

// AggregateDemand returns the demand of requests, each aggregated at
// hotspot nearest[r], folded: foldEntries builds every row in one span.
func AggregateDemand(numHotspots int, nearest []int, requests []trace.Request) *Demand {
	es := make([]demandEntry, len(requests))
	for r, req := range requests {
		es[r] = demandEntry{video: req.Video, hotspot: int32(nearest[r]), count: 1}
	}
	d := NewDemand(numHotspots)
	runs, at := foldEntries(es, numHotspots)
	for h := range d.rows {
		row := runs[at[h]:at[h+1]:at[h+1]]
		d.rows[h] = demandRow{entries: row, folded: len(row)}
		for _, e := range row {
			d.Totals[h] += e.count
		}
	}
	return d
}

// foldEntries orders es by (hotspot, video) — radixPasses over the
// bytes of video − minVideo, then one counting pass over the hotspot —
// sums the counts of equal pairs, and returns the runs in one span,
// hotspot h's at [at[h], at[h+1]). It reorders es.
func foldEntries(es []demandEntry, numHotspots int) (runs []videoCount, at []int32) {
	minV, maxV := trace.VideoID(math.MaxInt32), trace.VideoID(math.MinInt32)
	for _, e := range es {
		minV, maxV = min(minV, e.video), max(maxV, e.video)
	}
	// With no entries the range is inverted and the passes run over
	// nothing.
	src := radixPasses(es, make([]demandEntry, len(es)), es,
		videoAsc(minV), uint64(maxV)-uint64(minV))
	at = make([]int32, numHotspots+1)
	for _, e := range src {
		at[e.hotspot+1]++
	}
	for h := 0; h < numHotspots; h++ {
		at[h+1] += at[h]
	}
	runs = make([]videoCount, len(src))
	next := slices.Clone(at[:numHotspots])
	for _, e := range src {
		runs[next[e.hotspot]] = videoCount{e.video, e.count}
		next[e.hotspot]++
	}
	// Sum equal videos, each row compacted towards the front.
	w := 0
	for h := 0; h < numHotspots; h++ {
		lo, hi := at[h], at[h+1]
		at[h] = int32(w)
		for _, e := range runs[lo:hi] {
			if w > int(at[h]) && runs[w-1].video == e.video {
				runs[w-1].count += e.count
			} else {
				runs[w] = e
				w++
			}
		}
	}
	at[numHotspots] = int32(w)
	return runs[:w], at
}

// Grow makes room in hotspot h's row for n more entries, so the next n
// Adds to it do not reallocate.
func (d *Demand) Grow(h trace.HotspotID, n int) {
	r := &d.rows[h]
	r.entries = slices.Grow(r.entries, n)
}

// Add records n requests for video v aggregated at hotspot h.
func (d *Demand) Add(h trace.HotspotID, v trace.VideoID, n int64) {
	r := &d.rows[h]
	r.entries = append(r.entries, videoCount{v, n})
	d.Totals[h] += n
}

// Fold orders and sums every row's entries added since the last fold,
// all rows' together (foldEntries), and merges each row's folded run
// with its folded prefix.
func (d *Demand) Fold() {
	n := 0
	for _, r := range d.rows {
		n += len(r.entries) - r.folded
	}
	if n == 0 {
		return
	}
	es := make([]demandEntry, 0, n)
	for h, r := range d.rows {
		for _, e := range r.entries[r.folded:] {
			es = append(es, demandEntry{video: e.video, hotspot: int32(h), count: e.count})
		}
	}
	runs, at := foldEntries(es, len(d.rows))
	for h := range d.rows {
		if r := &d.rows[h]; at[h] < at[h+1] {
			r.entries = mergeRuns(r.entries[:r.folded], runs[at[h]:at[h+1]:at[h+1]])
			r.folded = len(r.entries)
		}
	}
}

// fold folds one row (Fold's work on a single row).
func (r *demandRow) fold() {
	if r.folded < len(r.entries) {
		r.entries = foldRow(r.entries, r.folded)
		r.folded = len(r.entries)
	}
}

// foldRow returns es folded, its first folded entries folded already,
// without writing to es.
func foldRow(es []videoCount, folded int) []videoCount {
	tail := make([]demandEntry, 0, len(es)-folded)
	for _, e := range es[folded:] {
		tail = append(tail, demandEntry{video: e.video, count: e.count})
	}
	runs, _ := foldEntries(tail, 1)
	return mergeRuns(es[:folded], runs)
}

// mergeRuns returns the union of two folded runs, summing the counts of
// a video both hold; b itself when a is empty.
func mergeRuns(a, b []videoCount) []videoCount {
	if len(a) == 0 {
		return b
	}
	out := make([]videoCount, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].video < b[0].video:
			out, a = append(out, a[0]), a[1:]
		case a[0].video > b[0].video:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, videoCount{a[0].video, a[0].count + b[0].count})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func videoOf(e videoCount, v trace.VideoID) int { return cmp.Compare(e.video, v) }

// row returns hotspot h's entries folded: the row itself when it is
// folded, a folded copy otherwise.
func (d *Demand) row(h int) []videoCount {
	r := &d.rows[h]
	if r.folded == len(r.entries) {
		return r.entries
	}
	return foldRow(r.entries, r.folded)
}

// NumHotspots returns the hotspot count the demand covers.
func (d *Demand) NumHotspots() int { return len(d.Totals) }

// Count returns λ_hv, the requests for video v aggregated at hotspot h.
func (d *Demand) Count(h int, v trace.VideoID) int64 {
	r := &d.rows[h]
	var n int64
	if i, ok := slices.BinarySearchFunc(r.entries[:r.folded], v, videoOf); ok {
		n = r.entries[i].count
	}
	for _, e := range r.entries[r.folded:] {
		if e.video == v {
			n += e.count
		}
	}
	return n
}

// Each calls fn once per entry of hotspot h, video-ascending. fn must
// not edit d.
func (d *Demand) Each(h int, fn func(v trace.VideoID, n int64)) {
	for _, e := range d.row(h) {
		fn(e.video, e.count)
	}
}

// Len returns the number of entries of hotspot h's folded row: the
// distinct videos aggregated there.
func (d *Demand) Len(h int) int { return len(d.row(h)) }

// Top appends to dst, id-ascending, the up-to-k videos that rank first
// in hotspot h's row by count, descending, ties to the smaller id —
// the order of the round's rank rows — and returns the extended slice.
// It finds the k-th largest count, then takes every video above it and
// the smallest ids at it in one walk of the row.
func (d *Demand) Top(dst []int32, h, k int) []int32 {
	row := d.row(h)
	if k <= 0 {
		return dst
	}
	if k >= len(row) {
		for _, e := range row {
			dst = append(dst, int32(e.video))
		}
		return dst
	}
	counts := make([]int64, len(row))
	for i, e := range row {
		counts[i] = e.count
	}
	slices.Sort(counts)
	cut := counts[len(counts)-k]
	atCut := k // the top-k entries whose count is cut
	for _, c := range counts[len(counts)-k:] {
		if c > cut {
			atCut--
		}
	}
	for _, e := range row {
		if e.count > cut || e.count == cut && atCut > 0 {
			if e.count == cut {
				atCut--
			}
			dst = append(dst, int32(e.video))
		}
	}
	return dst
}

// Move shifts amt requests for video v from hotspot src to hotspot tgt.
// A source entry it empties is removed, so it no longer counts towards
// the hotspot's distinct videos.
func (d *Demand) Move(src, tgt int, v trace.VideoID, amt int64) {
	r := &d.rows[src]
	r.fold()
	i, ok := slices.BinarySearchFunc(r.entries, v, videoOf)
	switch {
	case ok && r.entries[i].count == amt:
		r.entries = slices.Delete(r.entries, i, i+1)
	case ok:
		r.entries[i].count -= amt
	default:
		r.entries = slices.Insert(r.entries, i, videoCount{v, -amt})
	}
	r.folded = len(r.entries)
	d.Totals[src] -= amt
	d.Add(trace.HotspotID(tgt), v, amt)
}

// Clear drops every entry of hotspot h.
func (d *Demand) Clear(h int) {
	d.rows[h] = demandRow{}
	d.Totals[h] = 0
}

// Merge folds src, a demand over the same hotspots, into d and consumes
// it: a hotspot d has no entries for adopts src's row whole, so src must
// not be used afterwards. Merging demands whose hotspots are disjoint
// is O(hotspots), whatever they hold. The rows both hold entries for
// stay unfolded until the next Fold.
func (d *Demand) Merge(src *Demand) {
	for h, row := range src.rows {
		if r := &d.rows[h]; len(r.entries) == 0 {
			*r = row
		} else {
			r.entries = append(r.entries, row.entries...)
		}
		d.Totals[h] += src.Totals[h]
	}
}

// VideoCounts returns hotspot h's demand keyed by plain int video ids,
// the form the similarity helpers consume.
func (d *Demand) VideoCounts(h int) map[int]int64 {
	row := d.row(h)
	out := make(map[int]int64, len(row))
	for _, e := range row {
		out[int(e.video)] = e.count
	}
	return out
}

// Clone returns a deep copy, folded or not as d's rows are.
func (d *Demand) Clone() *Demand {
	out := NewDemand(len(d.Totals))
	copy(out.Totals, d.Totals)
	for h, r := range d.rows {
		out.rows[h] = demandRow{entries: slices.Clone(r.entries), folded: r.folded}
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
	// RecoveredErrors counts MCMF solves (one per connected component
	// of a θ iteration's network or of the residual Gd pass) that
	// failed — error or panic — and were recovered by leaving their
	// flow unmoved.
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
	// solve (drift above DeltaThreshold). The very first round of a
	// delta-mode scheduler, and the first after a round error dropped
	// the retained state, is a cold full solve, not a fallback.
	DeltaFallback bool
	// SweepReplayed reports the round restored the recorded θ sweep's
	// outputs (flows and counts) instead of re-running it.
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

// Plan is the output of one scheduling round. It is also what
// ParseCanonical yields from a plan's canonical bytes: the same
// scheduling content, with Stats and Events zero.
type Plan struct {
	// Flows is the realised inter-hotspot flow f_ij.
	Flows []FlowEdge
	// Redirects is the per-video realisation of Flows.
	Redirects []Redirect
	// Placement is the videos each hotspot prefetches (y_vh), row h
	// hotspot h's.
	Placement PlacementRuns
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
