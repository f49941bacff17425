package scenario

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/scheme"
	"repro/internal/wal"
)

// Doc is one parsed scenario file: a generated world, a run
// configuration, explicit timed fault events, an optional seeded stress
// generator, and the assertions the run must satisfy.
type Doc struct {
	// Name labels the scenario in reports.
	Name string
	// Description is free-form documentation (unused by the runner).
	Description string

	World  WorldSpec
	Spec   RunSpec
	Events []Event
	Stress *Stress

	// Asserts are evaluated once against the finished run's metrics and
	// obs snapshot.
	Asserts []Assertion
	// SlotAsserts are evaluated in-run against every applied slot's
	// metrics (optionally windowed).
	SlotAsserts []SlotAssertion

	// SourcePath is the file the doc was loaded from ("" for Parse).
	SourcePath string
}

// WorldSpec overrides the synthetic world/trace generator. Zero fields
// keep trace.DefaultConfig's evaluation-scale values; scenario files
// are expected to scale down for CI.
type WorldSpec struct {
	Seed     int64
	Hotspots int
	Videos   int
	Users    int
	Requests int
	Slots    int
}

// RunSpec configures the simulation run.
type RunSpec struct {
	// Scheme is the scheduling policy (default "rbcaer").
	Scheme string
	// Seed is the simulation seed (default: the world seed).
	Seed int64
	// Churn is the i.i.d. per-slot offline probability, on top of any
	// Markov churn event.
	Churn float64
	// RadiusKm is the random/p2c routing radius (default 1.5).
	RadiusKm float64
	// CapacityFrac overrides every hotspot's service capacity as a
	// fraction of the video set (0 keeps the generated value).
	CapacityFrac float64
	// CacheFrac likewise for cache capacity.
	CacheFrac float64
	// FailFast aborts the run at the first violated slot assertion
	// instead of collecting every violation.
	FailFast bool
	// ShardCellKm grid-partitions the world into shards of this cell
	// size in km and schedules them concurrently with boundary
	// reconciliation (rbcaer only).
	ShardCellKm float64
	// Serve drives the trace through a real WAL-backed serving tier
	// (internal/server) over HTTP instead of the offline simulator and
	// requires every slot's plan to be byte-identical to an offline
	// run; crash events kill the tier abruptly mid-slot and restart it
	// from disk (rbcaer only; no fault events, stress, churn, sharding,
	// or slot assertions).
	Serve bool
	// Instances is the serve-mode frontend count (0 = 2).
	Instances int
	// Fsync is the serve-mode WAL fsync policy: always, interval, or
	// none ("" = always).
	Fsync string
	// CheckpointEvery writes a serve-mode checkpoint every N slot
	// boundaries (0 = the server default).
	CheckpointEvery int
}

// EventKind discriminates timed scenario events.
type EventKind int

const (
	// EventChurn switches on Markov session churn for the whole run.
	EventChurn EventKind = iota + 1
	// EventOutage is a correlated regional outage window.
	EventOutage
	// EventDegrade is a capacity-degradation window.
	EventDegrade
	// EventFlash is a flash-crowd window.
	EventFlash
	// EventStale degrades the scheduler's load reports for the whole
	// run.
	EventStale
	// EventTheta switches RBCAer's θ-sweep parameters from a slot
	// onward.
	EventTheta
	// EventCrash kills the serve-mode tier abruptly mid-slot and
	// restarts it from the write-ahead log (run.serve only).
	EventCrash
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventChurn:
		return "churn"
	case EventOutage:
		return "regional_outage"
	case EventDegrade:
		return "degrade_capacity"
	case EventFlash:
		return "flash_crowd"
	case EventStale:
		return "stale_reports"
	case EventTheta:
		return "theta"
	case EventCrash:
		return "crash"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one explicit timed entry of the events section. At/Until
// bound windowed families ([At, Until)); whole-run families (churn,
// stale_reports) require At == 0.
type Event struct {
	Kind  EventKind
	At    int
	Until int

	// churn
	Fail    float64
	Recover float64
	// regional_outage
	X, Y, RadiusKm float64
	// degrade_capacity
	Fraction      float64
	ServiceFactor float64
	CacheFactor   float64
	// flash_crowd
	TopVideos  int
	Multiplier int
	// stale_reports
	Lag          int
	DropFraction float64
	// theta
	Theta1, Theta2, DeltaD float64
}

// Load reads and parses a scenario file.
func Load(path string) (*Doc, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d.SourcePath = path
	return d, nil
}

// Parse parses scenario YAML into a validated Doc.
func Parse(src []byte) (*Doc, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	d, err := newDec(root, "scenario")
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	doc.Name = d.str("name", "")
	doc.Description = d.str("description", "")

	if w := d.get("world"); w != nil {
		if err := doc.decodeWorld(w); err != nil {
			return nil, err
		}
	}
	if r := d.get("run"); r != nil {
		if err := doc.decodeRun(r); err != nil {
			return nil, err
		}
	}
	if ev := d.get("events"); ev != nil {
		if err := doc.decodeEvents(ev); err != nil {
			return nil, err
		}
	}
	if st := d.get("stress"); st != nil {
		if err := doc.decodeStress(st); err != nil {
			return nil, err
		}
	}
	if a := d.get("assert"); a != nil {
		if err := doc.decodeAsserts(a); err != nil {
			return nil, err
		}
	}
	if a := d.get("assert_slot"); a != nil {
		if err := doc.decodeSlotAsserts(a); err != nil {
			return nil, err
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("scenario: missing required key \"name\"")
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

func (doc *Doc) decodeWorld(n *node) error {
	d, err := newDec(n, "world")
	if err != nil {
		return err
	}
	doc.World = WorldSpec{
		Seed:     d.int64Of("seed", 1),
		Hotspots: d.integer("hotspots", 0),
		Videos:   d.integer("videos", 0),
		Users:    d.integer("users", 0),
		Requests: d.integer("requests", 0),
		Slots:    d.integer("slots", 0),
	}
	return d.finish()
}

func (doc *Doc) decodeRun(n *node) error {
	d, err := newDec(n, "run")
	if err != nil {
		return err
	}
	doc.Spec = RunSpec{
		Scheme:          d.str("scheme", ""),
		Seed:            d.int64Of("seed", 0),
		Churn:           d.float("churn", 0),
		RadiusKm:        d.float("radius_km", 0),
		CapacityFrac:    d.float("capacity_frac", 0),
		CacheFrac:       d.float("cache_frac", 0),
		FailFast:        d.boolean("fail_fast", false),
		ShardCellKm:     d.float("shard_cell_km", 0),
		Serve:           d.boolean("serve", false),
		Instances:       d.integer("instances", 0),
		Fsync:           d.str("fsync", ""),
		CheckpointEvery: d.integer("checkpoint_every", 0),
	}
	return d.finish()
}

// parseAt parses an event start slot: either a bare integer or the
// "slot N" form the grammar documents.
func parseAt(d *dec) int {
	c := d.get("at")
	if c == nil {
		return 0
	}
	s, ok := d.scalarOf("at", c)
	if !ok {
		return 0
	}
	s = strings.TrimSpace(strings.TrimPrefix(s, "slot "))
	v, err := strconv.Atoi(s)
	if err != nil {
		d.fail("line %d: %s.at: %q is not a slot number (want N or \"slot N\")", c.line, d.ctx, s)
		return 0
	}
	return v
}

// parseWindow resolves an event's [At, Until) window from at plus
// either "for" (a duration in slots) or "until" (an exclusive end
// slot).
func parseWindow(d *dec, ev *Event) {
	ev.At = parseAt(d)
	hasFor, hasUntil := d.n.child("for") != nil, d.n.child("until") != nil
	switch {
	case hasFor && hasUntil:
		d.fail("%s: give \"for\" or \"until\", not both", d.ctx)
	case hasFor:
		ev.Until = ev.At + d.integer("for", 0)
	case hasUntil:
		ev.Until = d.integer("until", 0)
	default:
		d.fail("%s: windowed event needs \"for\" (slots) or \"until\" (end slot)", d.ctx)
	}
}

func (doc *Doc) decodeEvents(n *node) error {
	if n.kind != seqNode {
		return fmt.Errorf("scenario: line %d: events must be a sequence", n.line)
	}
	for i, item := range n.items {
		ctx := fmt.Sprintf("events[%d]", i)
		d, err := newDec(item, ctx)
		if err != nil {
			return err
		}
		action := d.str("action", "")
		var ev Event
		switch action {
		case "churn":
			ev = Event{
				Kind:    EventChurn,
				At:      parseAt(d),
				Fail:    d.float("fail", 0),
				Recover: d.float("recover", 0),
			}
			if ev.At != 0 {
				d.fail("%s: churn is whole-run (the Markov chain has no window); at must be 0", ctx)
			}
		case "regional_outage":
			ev = Event{
				Kind:     EventOutage,
				X:        d.float("x", 0),
				Y:        d.float("y", 0),
				RadiusKm: d.float("radius_km", -1),
			}
			parseWindow(d, &ev)
			if ev.RadiusKm < 0 {
				d.fail("%s: regional_outage needs radius_km >= 0", ctx)
			}
		case "degrade_capacity":
			ev = Event{
				Kind:          EventDegrade,
				Fraction:      d.float("fraction", 1),
				ServiceFactor: d.float("service_factor", 1),
				CacheFactor:   d.float("cache_factor", 1),
			}
			parseWindow(d, &ev)
		case "flash_crowd":
			ev = Event{
				Kind:       EventFlash,
				TopVideos:  d.integer("top_videos", 0),
				Multiplier: d.integer("multiplier", 0),
			}
			parseWindow(d, &ev)
		case "stale_reports":
			ev = Event{
				Kind:         EventStale,
				At:           parseAt(d),
				Lag:          d.integer("lag", 0),
				DropFraction: d.float("drop_fraction", 0),
			}
			if ev.At != 0 {
				d.fail("%s: stale_reports is whole-run; at must be 0", ctx)
			}
		case "theta":
			ev = Event{
				Kind:   EventTheta,
				At:     parseAt(d),
				Theta1: d.float("theta1", -1),
				Theta2: d.float("theta2", -1),
				DeltaD: d.float("delta_d", -1),
			}
		case "crash":
			ev = Event{Kind: EventCrash, At: parseAt(d)}
		case "":
			d.fail("line %d: %s: missing \"action\"", item.line, ctx)
		default:
			d.fail("line %d: %s: unknown action %q (want churn, regional_outage, degrade_capacity, flash_crowd, stale_reports, theta, or crash)",
				item.line, ctx, action)
		}
		if err := d.finish(); err != nil {
			return err
		}
		doc.Events = append(doc.Events, ev)
	}
	return nil
}

func (doc *Doc) decodeAsserts(n *node) error {
	if n.kind != seqNode {
		return fmt.Errorf("scenario: line %d: assert must be a sequence", n.line)
	}
	for i, item := range n.items {
		if item.kind != scalarNode {
			return fmt.Errorf("scenario: line %d: assert[%d] must be an expression string", item.line, i)
		}
		a, err := parseAssertion(item.scalar, item.line, false)
		if err != nil {
			return err
		}
		doc.Asserts = append(doc.Asserts, a)
	}
	return nil
}

func (doc *Doc) decodeSlotAsserts(n *node) error {
	if n.kind != seqNode {
		return fmt.Errorf("scenario: line %d: assert_slot must be a sequence", n.line)
	}
	for i, item := range n.items {
		switch item.kind {
		case scalarNode:
			a, err := parseAssertion(item.scalar, item.line, true)
			if err != nil {
				return err
			}
			doc.SlotAsserts = append(doc.SlotAsserts, SlotAssertion{Assertion: a, From: 0, To: -1})
		case mapNode:
			ctx := fmt.Sprintf("assert_slot[%d]", i)
			d, err := newDec(item, ctx)
			if err != nil {
				return err
			}
			expr := d.str("expr", "")
			from := d.integer("from", 0)
			to := d.integer("to", -1)
			if err := d.finish(); err != nil {
				return err
			}
			if expr == "" {
				return fmt.Errorf("scenario: line %d: %s: missing \"expr\"", item.line, ctx)
			}
			a, err := parseAssertion(expr, item.line, true)
			if err != nil {
				return err
			}
			if from < 0 || (to != -1 && to <= from) {
				return fmt.Errorf("scenario: line %d: %s: bad slot window [%d, %d)", item.line, ctx, from, to)
			}
			doc.SlotAsserts = append(doc.SlotAsserts, SlotAssertion{Assertion: a, From: from, To: to})
		default:
			return fmt.Errorf("scenario: line %d: assert_slot[%d] must be an expression or a mapping", item.line, i)
		}
	}
	return nil
}

// validate cross-checks the decoded document. Fault parameter ranges
// themselves are validated again by fault.Scenario.Validate at compile
// time; this layer catches scenario-level contradictions.
func (doc *Doc) validate() error {
	if doc.Spec.Scheme != "" && !slices.Contains(scheme.Names(), doc.Spec.Scheme) {
		return fmt.Errorf("scenario: unknown run.scheme %q", doc.Spec.Scheme)
	}
	if doc.Spec.Churn < 0 || doc.Spec.Churn > 1 {
		return fmt.Errorf("scenario: run.churn %v outside [0, 1]", doc.Spec.Churn)
	}
	if doc.Spec.ShardCellKm < 0 {
		return fmt.Errorf("scenario: run.shard_cell_km %v negative", doc.Spec.ShardCellKm)
	}
	if doc.Spec.ShardCellKm > 0 && doc.Spec.Scheme != "" && doc.Spec.Scheme != "rbcaer" {
		return fmt.Errorf("scenario: sharding requires run.scheme rbcaer, got %q", doc.Spec.Scheme)
	}
	if err := doc.validateServe(); err != nil {
		return err
	}
	var churnEvents, staleEvents int
	thetaAt := -1
	for i, ev := range doc.Events {
		switch ev.Kind {
		case EventChurn:
			churnEvents++
			if churnEvents > 1 {
				return fmt.Errorf("scenario: events[%d]: duplicate churn event", i)
			}
		case EventStale:
			staleEvents++
			if staleEvents > 1 {
				return fmt.Errorf("scenario: events[%d]: duplicate stale_reports event", i)
			}
		case EventTheta:
			if doc.Spec.Scheme != "" && doc.Spec.Scheme != "rbcaer" {
				return fmt.Errorf("scenario: events[%d]: theta requires run.scheme rbcaer, got %q", i, doc.Spec.Scheme)
			}
			if doc.Spec.ShardCellKm > 0 {
				return fmt.Errorf("scenario: events[%d]: theta events are incompatible with sharded scheduling", i)
			}
			if ev.At <= thetaAt {
				return fmt.Errorf("scenario: events[%d]: theta events must have strictly increasing \"at\" slots", i)
			}
			thetaAt = ev.At
		}
	}
	if churnEvents > 0 && doc.Stress != nil && doc.Stress.Churn != nil {
		return fmt.Errorf("scenario: explicit churn event and stress.churn both set; keep one")
	}
	if staleEvents > 0 && doc.Stress != nil && doc.Stress.Staleness != nil {
		return fmt.Errorf("scenario: explicit stale_reports event and stress.stale_reports both set; keep one")
	}
	return nil
}

// validateServe cross-checks serve mode: a serve run drives a real
// durable serving tier, so only crash events apply, and the simulator's
// fault/stress machinery (and its per-slot metrics) is unavailable.
func (doc *Doc) validateServe() error {
	if !doc.Spec.Serve {
		if doc.Spec.Instances != 0 || doc.Spec.Fsync != "" || doc.Spec.CheckpointEvery != 0 {
			return fmt.Errorf("scenario: run.instances/fsync/checkpoint_every need run.serve: true")
		}
		for i, ev := range doc.Events {
			if ev.Kind == EventCrash {
				return fmt.Errorf("scenario: events[%d]: crash needs run.serve: true", i)
			}
		}
		return nil
	}
	if doc.Spec.Scheme != "" && doc.Spec.Scheme != "rbcaer" {
		return fmt.Errorf("scenario: run.serve requires run.scheme rbcaer, got %q", doc.Spec.Scheme)
	}
	if doc.Spec.ShardCellKm > 0 {
		return fmt.Errorf("scenario: run.serve does not support sharded scheduling")
	}
	if doc.Spec.Churn != 0 {
		return fmt.Errorf("scenario: run.serve does not support churn (the serving tier has no fault injection)")
	}
	if doc.Stress != nil {
		return fmt.Errorf("scenario: run.serve does not support the stress section")
	}
	if len(doc.SlotAsserts) > 0 {
		return fmt.Errorf("scenario: run.serve does not support assert_slot (serve runs have no per-slot sim metrics)")
	}
	if doc.Spec.Instances < 0 {
		return fmt.Errorf("scenario: run.instances %d negative", doc.Spec.Instances)
	}
	if doc.Spec.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: run.checkpoint_every %d negative", doc.Spec.CheckpointEvery)
	}
	if _, err := wal.ParsePolicy(doc.Spec.Fsync); err != nil {
		return fmt.Errorf("scenario: run.fsync %q: %w", doc.Spec.Fsync, err)
	}
	prev := 0
	for i, ev := range doc.Events {
		if ev.Kind != EventCrash {
			return fmt.Errorf("scenario: events[%d]: serve mode supports only crash events, got %s", i, ev.Kind)
		}
		if ev.At < 1 {
			return fmt.Errorf("scenario: events[%d]: crash.at must be >= 1", i)
		}
		if ev.At <= prev {
			return fmt.Errorf("scenario: events[%d]: crash events must have strictly increasing \"at\" slots", i)
		}
		prev = ev.At
	}
	return nil
}
