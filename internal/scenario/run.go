package scenario

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecOptions parameterise scenario execution. Workers only changes how
// the run is parallelised — scenario semantics, metrics, and the report
// are byte-identical for every value (the determinism suite certifies
// Workers 1 vs 4).
type ExecOptions struct {
	// Workers is the scheduling parallelism (0 = all cores, 1 =
	// serial).
	Workers int
}

// errFailFast aborts a fail_fast run at the first violated slot
// assertion.
var errFailFast = errors.New("scenario: slot assertion violated (fail_fast)")

// AssertResult is one evaluated run-level assertion.
type AssertResult struct {
	Assertion
	Value float64
	Pass  bool
	// Err records an evaluation error (e.g. an unknown obs counter);
	// the assertion counts as failed.
	Err string
}

// SlotAssertResult is one evaluated slot-level assertion aggregated
// over its window.
type SlotAssertResult struct {
	SlotAssertion
	// Checked counts the applied slots the window covered.
	Checked int
	// Violations counts covered slots where the predicate was false.
	Violations int
	// FirstSlot/FirstValue describe the first violation.
	FirstSlot  int
	FirstValue float64
	Pass       bool
}

// Report is a finished scenario run: the headline metrics, the fault
// summary, and every assertion's verdict. Its text rendering contains
// no wall-clock quantities, so equal (file, seed) runs render
// byte-identically at any worker count.
type Report struct {
	Name        string
	Scheme      string
	Hotspots    int
	Videos      int
	Slots       int
	Seed        int64
	StressCount int
	FaultCounts fault.CauseCounts

	// Serve-mode outcome (run.serve: true). Metrics is nil for serve
	// runs; the byte-identity verdict lives in PlansMatched /
	// PlansMismatched and the serve.* counters of Snapshot.
	Serve           bool
	ServeInstances  int
	ServeFsync      string
	Crashes         int
	PlansMatched    int
	PlansMismatched int

	Metrics     *sim.Metrics
	Snapshot    obs.Snapshot
	Results     []AssertResult
	SlotResults []SlotAssertResult

	// Aborted is set when fail_fast stopped the run mid-way; Metrics is
	// nil and run-level assertions were not evaluated.
	Aborted     bool
	AbortedSlot int

	Pass bool
}

// Execute generates the scenario's world and trace, compiles the
// explicit events and stress expansion onto one fault.Scenario, runs
// the simulation with in-run slot assertions, evaluates the run-level
// assertions, and returns the report. The returned error is non-nil
// only for scenario/infrastructure failures — assertion failures are
// reported via Report.Pass.
func (doc *Doc) Execute(opt ExecOptions) (*Report, error) {
	if doc.Spec.Serve {
		return doc.executeServe(opt)
	}
	cfg := doc.traceConfig()
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: generating world: %w", err)
	}
	world.OverrideCapacities(doc.Spec.CapacityFrac, doc.Spec.CacheFrac)

	stressSeed := cfg.Seed
	if doc.Stress != nil && doc.Stress.SeedSet {
		stressSeed = doc.Stress.Seed
	}
	if doc.Stress != nil {
		doc.Stress.applyFleet(world, stressSeed)
	}
	sc, stressCount, err := doc.compileFaults(world, cfg.Slots, stressSeed)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	simSeed := doc.Spec.Seed
	if simSeed == 0 {
		simSeed = cfg.Seed
	}
	factory, err := doc.policy(reg, opt.Workers)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Name:        doc.Name,
		Scheme:      doc.schemeName(),
		Hotspots:    len(world.Hotspots),
		Videos:      world.NumVideos,
		Slots:       cfg.Slots,
		Seed:        simSeed,
		StressCount: stressCount,
	}

	// Slot assertions evaluate in-run on the sequential epilogue.
	slotResults := make([]SlotAssertResult, len(doc.SlotAsserts))
	for i := range slotResults {
		slotResults[i] = SlotAssertResult{SlotAssertion: doc.SlotAsserts[i], Pass: true, FirstSlot: -1}
	}
	sink := func(sm sim.SlotMetrics) error {
		violated := false
		for i := range slotResults {
			r := &slotResults[i]
			if !r.covers(sm.Slot) {
				continue
			}
			r.Checked++
			v, ok := r.evalSlot(sm)
			if !ok {
				r.Violations++
				r.Pass = false
				if r.FirstSlot < 0 {
					r.FirstSlot = sm.Slot
					r.FirstValue = v
				}
				violated = true
			}
		}
		if violated && doc.Spec.FailFast {
			return fmt.Errorf("%w", errFailFast)
		}
		return nil
	}

	opts := sim.Options{
		Seed:         simSeed,
		HotspotChurn: doc.Spec.Churn,
		Faults:       sc,
		Registry:     reg,
		SlotSink:     sink,
	}

	m, err := factory.Run(world, tr, opt.Workers, opts)
	rep.SlotResults = slotResults
	if err != nil {
		if errors.Is(err, errFailFast) {
			rep.Aborted = true
			rep.AbortedSlot = firstViolationSlot(slotResults)
			rep.Snapshot = reg.Snapshot(false)
			rep.Pass = false
			return rep, nil
		}
		return nil, fmt.Errorf("scenario: %w", err)
	}

	rep.Metrics = m
	rep.Snapshot = reg.Snapshot(false)
	// The run compiled the fault timeline and published its counts.
	for _, c := range rep.Snapshot.Counters {
		switch c.Name {
		case "fault.cause.churn":
			rep.FaultCounts.ChurnSlots = c.Value
		case "fault.cause.outage":
			rep.FaultCounts.OutageSlots = c.Value
		case "fault.cause.degradation":
			rep.FaultCounts.DegradedSlots = c.Value
		case "fault.cause.stale_drops":
			rep.FaultCounts.DroppedReports = c.Value
		}
	}
	rep.Results = make([]AssertResult, len(doc.Asserts))
	pass := true
	for i, a := range doc.Asserts {
		r := AssertResult{Assertion: a}
		v, ok, err := a.evalRun(m, rep.Snapshot)
		if err != nil {
			r.Err = err.Error()
			r.Pass = false
		} else {
			r.Value = v
			r.Pass = ok
		}
		if !r.Pass {
			pass = false
		}
		rep.Results[i] = r
	}
	for i := range rep.SlotResults {
		if !rep.SlotResults[i].Pass {
			pass = false
		}
	}
	rep.Pass = pass
	return rep, nil
}

// firstViolationSlot returns the earliest first-violation slot.
func firstViolationSlot(rs []SlotAssertResult) int {
	first := -1
	for _, r := range rs {
		if r.FirstSlot >= 0 && (first < 0 || r.FirstSlot < first) {
			first = r.FirstSlot
		}
	}
	return first
}

// traceConfig folds the world section onto the default generator
// config.
func (doc *Doc) traceConfig() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = doc.World.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if doc.World.Hotspots > 0 {
		cfg.NumHotspots = doc.World.Hotspots
	}
	if doc.World.Videos > 0 {
		cfg.NumVideos = doc.World.Videos
	}
	if doc.World.Users > 0 {
		cfg.NumUsers = doc.World.Users
	}
	if doc.World.Requests > 0 {
		cfg.NumRequests = doc.World.Requests
	}
	if doc.World.Slots > 0 {
		cfg.Slots = doc.World.Slots
	}
	return cfg
}

// compileFaults lowers the explicit events plus the stress expansion
// onto a single fault.Scenario — the same structure PR-2 composes in Go
// — so there is exactly one injection path. θ events are handled by the
// policy layer, not the fault layer.
func (doc *Doc) compileFaults(world *trace.World, slots int, stressSeed int64) (*fault.Scenario, int, error) {
	sc := &fault.Scenario{Name: doc.Name}
	for i, ev := range doc.Events {
		switch ev.Kind {
		case EventChurn:
			sc.Churn = &fault.MarkovChurn{FailPerSlot: ev.Fail, RecoverPerSlot: ev.Recover}
		case EventOutage:
			sc.Outages = append(sc.Outages, fault.RegionalOutage{
				Center:    point(ev.X, ev.Y),
				RadiusKm:  ev.RadiusKm,
				StartSlot: ev.At,
				EndSlot:   ev.Until,
			})
		case EventDegrade:
			sc.Degradations = append(sc.Degradations, fault.CapacityDegradation{
				StartSlot:     ev.At,
				EndSlot:       ev.Until,
				Fraction:      ev.Fraction,
				ServiceFactor: ev.ServiceFactor,
				CacheFactor:   ev.CacheFactor,
			})
		case EventFlash:
			sc.FlashCrowds = append(sc.FlashCrowds, fault.FlashCrowd{
				StartSlot:  ev.At,
				EndSlot:    ev.Until,
				TopVideos:  ev.TopVideos,
				Multiplier: ev.Multiplier,
			})
		case EventStale:
			sc.Staleness = &fault.StaleReports{LagSlots: ev.Lag, DropFraction: ev.DropFraction}
		case EventTheta:
			// Policy-layer event; nothing to inject.
		default:
			return nil, 0, fmt.Errorf("scenario: events[%d]: unhandled kind %v", i, ev.Kind)
		}
	}
	stressCount := 0
	if doc.Stress != nil {
		stressCount = doc.Stress.expand(sc, world, slots, stressSeed)
	}
	if err := sc.Validate(); err != nil {
		return nil, 0, fmt.Errorf("scenario: compiled fault scenario invalid: %w", err)
	}
	return sc, stressCount, nil
}

// schemeName resolves the run scheme with its default.
func (doc *Doc) schemeName() string {
	if doc.Spec.Scheme == "" {
		return "rbcaer"
	}
	return doc.Spec.Scheme
}

// policy resolves the run scheme through the scheme table. θ events
// (rbcaer only, see validate) wrap the factory's instances in a
// per-regime router.
func (doc *Doc) policy(reg *obs.Registry, workers int) (scheme.Factory, error) {
	radius := doc.Spec.RadiusKm
	if radius == 0 {
		radius = 1.5
	}
	params := core.DefaultParams()
	params.Obs = reg
	// Each theta event switches the θ-sweep parameters from its slot
	// onward.
	starts, regimes := []int{0}, []core.Params{params}
	for _, ev := range doc.Events {
		if ev.Kind != EventTheta {
			continue
		}
		if ev.Theta1 >= 0 {
			params.Theta1 = ev.Theta1
		}
		if ev.Theta2 >= 0 {
			params.Theta2 = ev.Theta2
		}
		if ev.DeltaD > 0 {
			params.DeltaD = ev.DeltaD
		}
		starts, regimes = append(starts, ev.At), append(regimes, params)
	}
	sp := shard.Params{CellKm: doc.Spec.ShardCellKm}
	factories := make([]scheme.Factory, len(regimes))
	for i, p := range regimes {
		f, err := scheme.Lookup(doc.schemeName(), radius, p, sp, workers)
		if err != nil {
			return f, fmt.Errorf("scenario: %w", err)
		}
		factories[i] = f
	}
	policy := factories[0]
	if len(factories) > 1 {
		policy.New = func() sim.Scheduler {
			p := &thetaPolicy{starts: starts}
			for _, f := range factories {
				p.scheds = append(p.scheds, f.New())
			}
			return p
		}
	}
	return policy, nil
}

// thetaPolicy routes each slot to the RBCAer instance whose θ regime
// covers it: the base parameters before the first theta event, then
// each event's overrides from its slot onward. Every instance owns
// its own regime set, so slots stay independently schedulable.
type thetaPolicy struct {
	starts []int
	scheds []sim.Scheduler
}

// Name implements sim.Scheduler.
func (p *thetaPolicy) Name() string { return p.scheds[0].Name() }

// Schedule implements sim.Scheduler.
func (p *thetaPolicy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	pick := 0
	for i, start := range p.starts {
		if ctx.Slot >= start {
			pick = i
		}
	}
	return p.scheds[pick].Schedule(ctx)
}

// ---- report rendering ----------------------------------------------

// Text renders the deterministic pass/fail report.
func (r *Report) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// WriteText renders the report. No wall-clock quantity appears, so the
// rendering is byte-identical for equal runs at any worker count.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario: %s\n", r.Name)
	fmt.Fprintf(w, "world:    %d hotspots, %d videos, %d slots (seed %d)\n", r.Hotspots, r.Videos, r.Slots, r.Seed)
	fmt.Fprintf(w, "scheme:   %s\n", r.Scheme)
	if r.Serve {
		fmt.Fprintf(w, "serve:    %d frontends, fsync %s, %d crash(es); %d/%d plans byte-identical to offline\n",
			r.ServeInstances, r.ServeFsync, r.Crashes, r.PlansMatched, r.PlansMatched+r.PlansMismatched)
	} else {
		fmt.Fprintf(w, "faults:   churn-slots=%d outage-slots=%d degraded-slots=%d dropped-reports=%d stress-generated=%d\n",
			r.FaultCounts.ChurnSlots, r.FaultCounts.OutageSlots, r.FaultCounts.DegradedSlots,
			r.FaultCounts.DroppedReports, r.StressCount)
	}
	if r.Aborted {
		fmt.Fprintf(w, "\nrun aborted at slot %d: slot assertion violated (fail_fast)\n", r.AbortedSlot)
	}
	if r.Metrics != nil {
		m := r.Metrics
		fmt.Fprintf(w, "\nmetrics:\n")
		fmt.Fprintf(w, "  total_requests:        %d (flash-injected %d)\n", m.TotalRequests, m.FlashInjectedRequests)
		fmt.Fprintf(w, "  served:                %d hotspot, %d cdn (%d infeasible)\n", m.ServedByHotspot, m.ServedByCDN, m.Infeasible)
		fmt.Fprintf(w, "  hotspot_serving_ratio: %s\n", fnum(m.HotspotServingRatio))
		fmt.Fprintf(w, "  avg_access_distance:   %s km\n", fnum(m.AvgAccessDistanceKm))
		fmt.Fprintf(w, "  replication_cost:      %s (%d replicas)\n", fnum(m.ReplicationCost), m.Replicas)
		fmt.Fprintf(w, "  cdn_server_load:       %s\n", fnum(m.CDNServerLoad))
		fmt.Fprintf(w, "  degraded_rounds:       %d\n", m.DegradedRounds)
		fmt.Fprintf(w, "  stranded_requests:     %d\n", m.StrandedRequests)
		fmt.Fprintf(w, "  offline_hotspot_slots: %d\n", m.OfflineHotspotSlots)
	}
	if len(r.Results) > 0 {
		fmt.Fprintf(w, "\nassertions:\n")
		for _, res := range r.Results {
			switch {
			case res.Err != "":
				fmt.Fprintf(w, "  FAIL %-40s (error: %s)\n", res.Raw, res.Err)
			case res.Pass:
				fmt.Fprintf(w, "  PASS %-40s (value %s)\n", res.Raw, fnum(res.Value))
			default:
				fmt.Fprintf(w, "  FAIL %-40s (value %s)\n", res.Raw, fnum(res.Value))
			}
		}
	}
	if len(r.SlotResults) > 0 {
		fmt.Fprintf(w, "\nslot assertions:\n")
		for _, res := range r.SlotResults {
			if res.Pass {
				fmt.Fprintf(w, "  PASS %-40s (%s; %d slots checked)\n", res.Raw, res.window(), res.Checked)
			} else {
				fmt.Fprintf(w, "  FAIL %-40s (%s; %d of %d slots violated, first slot %d: %s)\n",
					res.Raw, res.window(), res.Violations, res.Checked, res.FirstSlot, fnum(res.FirstValue))
			}
		}
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nresult: %s (%d assertions, %d slot assertions)\n",
		verdict, len(r.Results), len(r.SlotResults))
}

// fnum renders a float deterministically (shortest round-trip form).
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// point builds a geo point.
func point(x, y float64) geo.Point {
	return geo.Point{X: x, Y: y}
}
