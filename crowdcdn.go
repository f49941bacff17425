// Package crowdcdn is the public API of the crowdsourced-CDN
// reproduction of "Joint Request Balancing and Content Aggregation in
// Crowdsourced CDN" (Ma, Wang, Yi, Liu, Sun — ICDCS 2017).
//
// It re-exports the user-facing pieces of the internal packages:
//
//   - world and trace generation (a calibrated synthetic substitute for
//     the paper's proprietary iQiyi / Wi-Fi AP datasets),
//   - the RBCAer scheduler (the paper's contribution: request balancing
//     via min-cost max-flow plus content aggregation) and the baseline
//     policies it is compared against,
//   - the trace-driven simulator with the paper's four evaluation
//     metrics, and
//   - the experiment harness that regenerates every figure of the
//     paper's evaluation.
//
// A minimal end-to-end run:
//
//	world, tr, err := crowdcdn.Generate(crowdcdn.DefaultTraceConfig())
//	if err != nil { ... }
//	metrics, err := crowdcdn.Simulate(world, tr, crowdcdn.NewRBCAer(crowdcdn.DefaultParams()), crowdcdn.SimOptions{Seed: 1})
//	if err != nil { ... }
//	fmt.Printf("serving ratio %.3f\n", metrics.HotspotServingRatio)
//
// See the runnable programs under examples/ and the cmd/ tools for
// fuller usage, and DESIGN.md / EXPERIMENTS.md for the reproduction's
// scope and results.
package crowdcdn

import (
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Domain model (see internal/trace).
type (
	// World is the static deployment: region, hotspot fleet, catalogue
	// size, and CDN latency proxy.
	World = trace.World
	// Hotspot is an edge content hotspot with service and cache
	// capacity.
	Hotspot = trace.Hotspot
	// Request is one video session.
	Request = trace.Request
	// Trace is a sequence of requests over timeslots.
	Trace = trace.Trace
	// TraceConfig parameterises the synthetic world/trace generator.
	TraceConfig = trace.Config
	// VideoID identifies a video.
	VideoID = trace.VideoID
	// HotspotID identifies a hotspot.
	HotspotID = trace.HotspotID
	// UserID identifies a user.
	UserID = trace.UserID
	// Point is a planar location in kilometres.
	Point = geo.Point
	// Rect is an axis-aligned region in kilometres.
	Rect = geo.Rect
)

// Scheduling (see internal/core and internal/sim).
type (
	// Params are RBCAer's tuning parameters.
	Params = core.Params
	// Demand is one slot's per-hotspot per-video aggregated demand.
	Demand = core.Demand
	// Plan is the output of one RBCAer scheduling round.
	Plan = core.Plan
	// Constraints override hotspot capacities for one round; the zero
	// value schedules against the world's nominal capacities.
	Constraints = core.Constraints
	// RBCAScheduler runs RBCAer rounds directly (lower-level than the
	// policy returned by NewRBCAer).
	RBCAScheduler = core.Scheduler
	// Scheduler is a simulator policy.
	Scheduler = sim.Scheduler
	// Metrics are the paper's evaluation metrics for one run.
	Metrics = sim.Metrics
	// SimOptions configure a simulation run.
	SimOptions = sim.Options
	// Figure is the data behind one reproduced paper figure.
	Figure = exp.Figure
	// ExperimentRunner regenerates the paper's figures.
	ExperimentRunner = exp.Runner
)

// Fault injection (see internal/fault and DESIGN.md §7). A
// FaultScenario plugs into SimOptions.Faults; all fault randomness is
// pre-drawn from seed streams split off SimOptions.Seed, so faulty
// runs stay byte-identical across worker counts.
type (
	// FaultScenario composes failure modes for one simulation run.
	FaultScenario = fault.Scenario
	// MarkovChurn is per-hotspot on/off session churn.
	MarkovChurn = fault.MarkovChurn
	// RegionalOutage takes every hotspot within a radius offline for a
	// window of slots.
	RegionalOutage = fault.RegionalOutage
	// CapacityDegradation scales a random fraction of the fleet's
	// service/cache capacity over a window of slots.
	CapacityDegradation = fault.CapacityDegradation
	// FlashCrowd multiplies demand for the hottest videos over a window
	// of slots.
	FlashCrowd = fault.FlashCrowd
	// StaleReports lags and thins the demand reports policies see.
	StaleReports = fault.StaleReports
)

// Declarative scenarios (see internal/scenario and DESIGN.md §13). A
// scenario file (YAML subset, zero dependencies) declares a world,
// timed fault events, seeded stress generation, and assertions; Execute
// compiles it onto a FaultScenario and reports every assertion's
// verdict. cdnsim -scenario runs one from the command line.
type (
	// ScenarioDoc is one parsed scenario file.
	ScenarioDoc = scenario.Doc
	// ScenarioOptions parameterise scenario execution.
	ScenarioOptions = scenario.ExecOptions
	// ScenarioReport is a finished scenario run with per-assertion
	// verdicts; its text rendering is deterministic across worker
	// counts.
	ScenarioReport = scenario.Report
)

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (*ScenarioDoc, error) { return scenario.Load(path) }

// Observability (see internal/obs and DESIGN.md §8). A Registry and a
// Tracer plug into SimOptions (and Params.Obs for RBCAer round
// counters); their deterministic outputs — Snapshot(false) and a
// dropTimings tracer's event stream — are byte-identical across worker
// counts on a fixed seed.
type (
	// MetricsRegistry collects named counters, gauges, histograms, and
	// timers from a run.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a sorted, serialisable view of a registry.
	MetricsSnapshot = obs.Snapshot
	// RoundTracer records per-round / per-slot structured events into a
	// bounded ring buffer.
	RoundTracer = obs.Tracer
	// TraceEvent is one recorded scheduling event.
	TraceEvent = obs.Event
	// PhaseTimings splits a scheduling round's wall time into the
	// cluster / balance / replicate phases.
	PhaseTimings = obs.PhaseTimings
)

// Online serving (see internal/server and DESIGN.md §10). A Server
// ingests live requests over HTTP, recomputes an RBCAer plan each
// timeslot on a dedicated worker, and routes redirect lookups by an
// atomically swapped plan under the simulator's routing rule. Fed the
// same trace, it produces plans byte-identical to Simulate's.
type (
	// ServerConfig configures an online scheduling server.
	ServerConfig = server.Config
	// Server is one online scheduling service instance.
	Server = server.Server
	// PlanRecord is one retained per-slot plan summary.
	PlanRecord = server.PlanRecord
	// LoadgenOptions tune a trace replay against a running server.
	LoadgenOptions = loadgen.Options
	// LoadgenReport is the outcome of a replay.
	LoadgenReport = loadgen.Report
)

// NewServer validates the configuration and builds an online scheduling
// server (start it with Start, stop it with Close).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ReplayTrace drives a trace through a running server slot by slot
// (POST /ingest + POST /admin/advance) and reports per-slot outcomes,
// including each served plan's digest. A workload is a trace: one from
// Generate (or cdntrace's files) is what a replay drives.
func ReplayTrace(baseURL string, world *World, tr *Trace, opts LoadgenOptions) (*LoadgenReport, error) {
	return loadgen.Replay(baseURL, world, tr, opts)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRoundTracer returns a ring-buffered tracer holding up to capacity
// events (0 selects the default). dropTimings strips wall-clock
// duration attributes so the stream stays deterministic.
func NewRoundTracer(capacity int, dropTimings bool) *RoundTracer {
	return obs.NewTracer(capacity, dropTimings)
}

// ServeDebug starts an HTTP server on addr exposing net/http/pprof
// profiles, expvar, and the registry/tracer contents (see
// internal/obs). It returns the server and its actual address
// (addr may use port 0).
func ServeDebug(addr string, reg *MetricsRegistry, tr *RoundTracer) (*http.Server, string, error) {
	return obs.ServeDebug(addr, reg, tr)
}

// CDN is the simulator's sentinel target meaning "served by the origin
// CDN server".
const CDN = core.CDN

// DefaultTraceConfig returns the paper's Sec. V evaluation-scale
// configuration (17x11 km, 310 hotspots, 15,190 videos, 212,472
// requests).
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// MeasurementTraceConfig returns the paper's Sec. II measurement-scale
// configuration (city-scale, 5,000 hotspots, a day of hourly slots).
func MeasurementTraceConfig() TraceConfig { return trace.MeasurementConfig() }

// Generate builds a synthetic world and request trace from the
// configuration, deterministically in cfg.Seed.
func Generate(cfg TraceConfig) (*World, *Trace, error) { return trace.Generate(cfg) }

// DefaultParams returns RBCAer's paper-default parameters (θ1=0.5 km,
// θ2=1.5 km, δd=0.5 km, top-20% signatures; cluster cut recalibrated
// to this repository's trace — see DESIGN.md).
func DefaultParams() Params { return core.DefaultParams() }

// NewRBCAScheduler returns the low-level RBCAer scheduler for driving
// rounds manually (see examples/online).
func NewRBCAScheduler(world *World, params Params) (*RBCAScheduler, error) {
	return core.New(world, params)
}

// NewDemand returns an empty slot demand over numHotspots hotspots, to
// be filled with Demand.Add, folded with Demand.Fold and handed to
// RBCAScheduler.ScheduleRound.
func NewDemand(numHotspots int) *Demand { return core.NewDemand(numHotspots) }

// NewRBCAer returns the RBCAer simulator policy.
func NewRBCAer(params Params) Scheduler { return scheme.NewRBCAer(params) }

// NewNearest returns the Nearest-routing baseline policy.
func NewNearest() Scheduler { return scheme.Nearest{} }

// NewRandom returns the local-random baseline policy with the given
// routing radius in kilometres (the paper uses 1.5).
func NewRandom(radiusKm float64) Scheduler { return scheme.Random{RadiusKm: radiusKm} }

// NewLPBased returns the LP-relaxation baseline policy used in the
// running-time comparison.
func NewLPBased() Scheduler { return scheme.LPBased{} }

// NewFactoredPredicted wraps a policy with factored demand forecasting:
// per-hotspot totals predicted seasonally and spread over each
// hotspot's smoothed video-share distribution — the learned-demand mode
// (see EXPERIMENTS.md, abl-prediction, for the direct per-key
// forecasters it beat).
func NewFactoredPredicted(inner Scheduler) Scheduler {
	return scheme.NewFactoredPredicted(inner)
}

// NewHierarchical returns the cross-region hierarchical RBCAer (the
// extension the paper proposes via its region-partition prior work):
// RBCAer across region-level virtual hotspots, then within each region.
// cellKm is the region grid size (0 selects 3 km).
func NewHierarchical(cellKm float64) Scheduler { return scheme.NewHierarchical(cellKm) }

// ShardParams configure the sharded regional scheduler: geo-partition
// the world, run one RBCAer round per shard concurrently, then
// reconcile residual overload across shard boundaries. See DESIGN.md
// §14.
type ShardParams = shard.Params

// NewSharded returns the sharded regional scheduling policy. Merged
// plans are byte-identical for any ShardParams.Workers value, and
// identical to the plain RBCAer when the partition has one shard.
func NewSharded(p ShardParams) Scheduler { return scheme.NewSharded(p) }

// NewPowerOfTwo returns the power-of-two-choices baseline (related work
// [20]): Random's caching with each request picking the less-loaded of
// two random in-radius holders.
func NewPowerOfTwo(radiusKm float64) Scheduler { return scheme.PowerOfTwo{RadiusKm: radiusKm} }

// Simulate replays the trace against the world under the policy and
// returns the paper's evaluation metrics.
func Simulate(world *World, tr *Trace, policy Scheduler, opts SimOptions) (*Metrics, error) {
	return sim.Run(world, tr, policy, opts)
}

// SchemeFactory is a scheme name resolved to a policy: New builds
// instances, and Run replays a trace under them on as many workers as
// the policy allows (one, when it carries state from slot to slot).
type SchemeFactory = scheme.Factory

// SchemeNames lists the policy names LookupScheme accepts (cdnsim
// -scheme, a scenario's run.scheme).
func SchemeNames() []string { return scheme.Names() }

// LookupScheme resolves a policy name. radiusKm is the random/p2c
// routing radius; params, sp and workers configure rbcaer only: a
// non-zero sp.CellKm selects the sharded scheduler.
func LookupScheme(name string, radiusKm float64, params Params, sp ShardParams, workers int) (SchemeFactory, error) {
	return scheme.Lookup(name, radiusKm, params, sp, workers)
}

// NewExperimentRunner returns a harness that regenerates the paper's
// figures. scale in (0, 1] shrinks the worlds for quick runs; 1 is
// paper scale.
func NewExperimentRunner(seed int64, scale float64) *ExperimentRunner {
	return exp.NewRunner(seed, scale)
}

// ExperimentIDs lists the reproducible paper experiments in order.
func ExperimentIDs() []string { return exp.Experiments() }

// ExtensionExperimentIDs lists the experiments this reproduction adds
// beyond the paper: the hierarchical cross-region mode, device-churn
// robustness, the power-of-two-choices comparison, and the ablations.
func ExtensionExperimentIDs() []string { return exp.ExtensionExperiments() }

// MeasurementExperimentIDs lists the experiments that read the Sec. II
// measurement data (ExperimentRunner.UseMeasurementData): Fig. 2, 3a
// and 3b.
func MeasurementExperimentIDs() []string { return exp.MeasurementExperiments() }

// AnalyzeWorkloadDistribution runs the paper's Fig. 2 measurement on
// any world and trace: per-hotspot workload CDFs under nearest and
// random routing, with the replication-cost comparison.
func AnalyzeWorkloadDistribution(world *World, tr *Trace, seed int64) (*Figure, error) {
	return exp.WorkloadDistribution(world, tr, seed)
}

// AnalyzeWorkloadCorrelation runs the paper's Fig. 3a measurement on
// any world and multi-slot trace: the CDF of Spearman workload
// correlation between hotspot pairs within 5 km.
func AnalyzeWorkloadCorrelation(world *World, tr *Trace, seed int64) (*Figure, error) {
	return exp.WorkloadCorrelation(world, tr, seed)
}

// AnalyzeContentSimilarity runs the paper's Fig. 3b measurement on any
// world and trace: CDFs of top-20% content-set Jaccard similarity
// between nearby hotspots at several deployment sample ratios.
func AnalyzeContentSimilarity(world *World, tr *Trace, seed int64) (*Figure, error) {
	return exp.ContentSimilarity(world, tr, seed)
}

// WriteWorld encodes a world as JSON (the cmd tools' world format).
func WriteWorld(w io.Writer, world *World) error { return trace.WriteWorld(w, world) }

// ReadWorld decodes and validates a world written by WriteWorld.
func ReadWorld(r io.Reader) (*World, error) { return trace.ReadWorld(r) }

// WriteRequests encodes a trace as CSV (the cmd tools' trace format).
func WriteRequests(w io.Writer, tr *Trace) error { return trace.WriteRequests(w, tr) }

// ReadRequests decodes a trace written by WriteRequests.
func ReadRequests(r io.Reader) (*Trace, error) { return trace.ReadRequests(r) }

// LoadFiles reads the world and trace files cdntrace writes and checks
// that the trace fits the world. Two empty paths return a nil pair (the
// caller generates one); one empty path is an error.
func LoadFiles(worldPath, tracePath string) (*World, *Trace, error) {
	return trace.LoadFiles(worldPath, tracePath)
}

// TraceSummary describes a world/trace pair with the measurement
// study's key statistics (workload skew, Gini, Zipf fit).
type TraceSummary = trace.Summary

// Summarize computes a TraceSummary over nearest-hotspot aggregation.
func Summarize(world *World, tr *Trace) (*TraceSummary, error) {
	return trace.Summarize(world, tr)
}
