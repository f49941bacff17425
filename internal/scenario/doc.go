package scenario

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/scheme"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Doc is one parsed scenario file: a generated world, a run
// configuration, explicit timed events, an optional seeded stress
// generator, and the assertions the run must satisfy. Each section
// decodes straight into the type that runs it.
type Doc struct {
	// Name labels the scenario in reports.
	Name string
	// Description is free-form documentation (unused by the runner).
	Description string

	// World is the generator configuration: trace.DefaultConfig (seed
	// 1) with the world section's values over it.
	World trace.Config
	Spec  RunSpec
	// Faults holds the explicit fault events (churn, regional_outage,
	// degrade_capacity, flash_crowd, stale_reports), named after the
	// doc; Execute appends the stress expansion to a copy.
	Faults fault.Scenario
	// Thetas are the theta events, in strictly increasing slot order.
	Thetas []ThetaChange
	// Crashes are the serve-mode crash slots, strictly increasing, each
	// at least 1.
	Crashes []int
	Stress  *Stress

	// Asserts are evaluated once against the finished run's metrics and
	// obs snapshot.
	Asserts []Assertion
	// SlotAsserts are evaluated in-run against every applied slot's
	// metrics (optionally windowed).
	SlotAsserts []SlotAssertion

	// SourcePath is the file the doc was loaded from ("" for Parse).
	SourcePath string
}

// RunSpec configures the simulation run.
type RunSpec struct {
	// Scheme is the scheduling policy (default "rbcaer").
	Scheme string
	// Seed is the simulation seed (default: the world seed).
	Seed int64
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
	// from disk (rbcaer only; no fault events, stress, sharding, or
	// slot assertions).
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

// ThetaChange switches RBCAer's θ-sweep parameters from slot At
// onward. A negative Theta1 or Theta2, or a non-positive DeltaD, keeps
// the previous regime's value.
type ThetaChange struct {
	At                     int
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
	doc := &Doc{World: trace.DefaultConfig()}
	doc.Name = d.str("name", "")
	doc.Description = d.str("description", "")
	doc.Faults.Name = doc.Name

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

// decodeWorld writes the world section over the generator defaults.
// Seed 0 keeps the default seed; a count (hotspots, videos, users,
// requests, slots) must be positive.
func (doc *Doc) decodeWorld(n *node) error {
	d, err := newDec(n, "world")
	if err != nil {
		return err
	}
	w := &doc.World
	if seed := d.int64Of("seed", 0); seed != 0 {
		w.Seed = seed
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"hotspots", &w.NumHotspots},
		{"videos", &w.NumVideos},
		{"users", &w.NumUsers},
		{"requests", &w.NumRequests},
		{"slots", &w.Slots},
	} {
		if v := d.integer(f.key, *f.dst); v > 0 {
			*f.dst = v
		} else {
			d.fail("line %d: world.%s: %d must be positive", d.n.child(f.key).line, f.key, v)
		}
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
	if err := d.finish(); err != nil {
		return err
	}
	return doc.Spec.validate()
}

// validate checks the run section on its own; the events section,
// decoded after it, is checked against it as it decodes.
func (r *RunSpec) validate() error {
	if r.Scheme != "" && !slices.Contains(scheme.Names(), r.Scheme) {
		return fmt.Errorf("scenario: unknown run.scheme %q", r.Scheme)
	}
	if r.ShardCellKm < 0 {
		return fmt.Errorf("scenario: run.shard_cell_km %v negative", r.ShardCellKm)
	}
	if !(r.CapacityFrac >= 0) || !(r.CacheFrac >= 0) {
		return fmt.Errorf("scenario: run.capacity_frac %v / cache_frac %v: must be non-negative (0 keeps the world's)", r.CapacityFrac, r.CacheFrac)
	}
	if r.ShardCellKm > 0 && r.Scheme != "" && r.Scheme != "rbcaer" {
		return fmt.Errorf("scenario: sharding requires run.scheme rbcaer, got %q", r.Scheme)
	}
	if !r.Serve {
		if r.Instances != 0 || r.Fsync != "" || r.CheckpointEvery != 0 {
			return fmt.Errorf("scenario: run.instances/fsync/checkpoint_every need run.serve: true")
		}
		return nil
	}
	if r.Scheme != "" && r.Scheme != "rbcaer" {
		return fmt.Errorf("scenario: run.serve requires run.scheme rbcaer, got %q", r.Scheme)
	}
	if r.ShardCellKm > 0 {
		return fmt.Errorf("scenario: run.serve does not support sharded scheduling")
	}
	if r.Instances < 0 {
		return fmt.Errorf("scenario: run.instances %d negative", r.Instances)
	}
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: run.checkpoint_every %d negative", r.CheckpointEvery)
	}
	if _, err := wal.ParsePolicy(r.Fsync); err != nil {
		return fmt.Errorf("scenario: run.fsync %q: %w", r.Fsync, err)
	}
	return nil
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

// parseWindow resolves an event's [start, end) window from at plus
// either "for" (a duration in slots) or "until" (an exclusive end
// slot).
func parseWindow(d *dec) (start, end int) {
	start = parseAt(d)
	hasFor, hasUntil := d.n.child("for") != nil, d.n.child("until") != nil
	switch {
	case hasFor && hasUntil:
		d.fail("%s: give \"for\" or \"until\", not both", d.ctx)
	case hasFor:
		end = start + d.integer("for", 0)
	case hasUntil:
		end = d.integer("until", 0)
	default:
		d.fail("%s: windowed event needs \"for\" (slots) or \"until\" (end slot)", d.ctx)
	}
	return start, end
}

// decodeEvents writes each event into what runs it: the five fault
// families into Faults, theta into Thetas, crash into Crashes. The
// world and run sections are decoded by now, so each event is checked
// against them here: serve mode takes only crashes, theta only plain
// rbcaer, and every event starts inside the run.
func (doc *Doc) decodeEvents(n *node) error {
	if n.kind != seqNode {
		return fmt.Errorf("scenario: line %d: events must be a sequence", n.line)
	}
	sc := &doc.Faults
	for i, item := range n.items {
		ctx := fmt.Sprintf("events[%d]", i)
		d, err := newDec(item, ctx)
		if err != nil {
			return err
		}
		action := d.str("action", "")
		at := 0
		switch action {
		case "churn":
			at = parseAt(d)
			c := &fault.MarkovChurn{FailPerSlot: d.float("fail", 0), RecoverPerSlot: d.float("recover", 0)}
			switch {
			case at != 0:
				d.fail("%s: churn is whole-run (the Markov chain has no window); at must be 0", ctx)
			case sc.Churn != nil:
				d.fail("%s: duplicate churn event", ctx)
			}
			sc.Churn = c
		case "regional_outage":
			o := fault.RegionalOutage{
				Center:   geo.Point{X: d.float("x", 0), Y: d.float("y", 0)},
				RadiusKm: d.float("radius_km", -1),
			}
			o.StartSlot, o.EndSlot = parseWindow(d)
			if o.RadiusKm < 0 {
				d.fail("%s: regional_outage needs radius_km >= 0", ctx)
			}
			at = o.StartSlot
			sc.Outages = append(sc.Outages, o)
		case "degrade_capacity":
			g := fault.CapacityDegradation{
				Fraction:      d.float("fraction", 1),
				ServiceFactor: d.float("service_factor", 1),
				CacheFactor:   d.float("cache_factor", 1),
			}
			g.StartSlot, g.EndSlot = parseWindow(d)
			at = g.StartSlot
			sc.Degradations = append(sc.Degradations, g)
		case "flash_crowd":
			f := fault.FlashCrowd{
				TopVideos:  d.integer("top_videos", 0),
				Multiplier: d.integer("multiplier", 0),
			}
			f.StartSlot, f.EndSlot = parseWindow(d)
			at = f.StartSlot
			sc.FlashCrowds = append(sc.FlashCrowds, f)
		case "stale_reports":
			at = parseAt(d)
			st := &fault.StaleReports{LagSlots: d.integer("lag", 0), DropFraction: d.float("drop_fraction", 0)}
			switch {
			case at != 0:
				d.fail("%s: stale_reports is whole-run; at must be 0", ctx)
			case sc.Staleness != nil:
				d.fail("%s: duplicate stale_reports event", ctx)
			}
			sc.Staleness = st
		case "theta":
			th := ThetaChange{
				At:     parseAt(d),
				Theta1: d.float("theta1", -1),
				Theta2: d.float("theta2", -1),
				DeltaD: d.float("delta_d", -1),
			}
			prev := -1
			if k := len(doc.Thetas); k > 0 {
				prev = doc.Thetas[k-1].At
			}
			switch {
			case doc.Spec.Scheme != "" && doc.Spec.Scheme != "rbcaer":
				d.fail("%s: theta requires run.scheme rbcaer, got %q", ctx, doc.Spec.Scheme)
			case doc.Spec.ShardCellKm > 0:
				d.fail("%s: theta events are incompatible with sharded scheduling", ctx)
			case th.At <= prev:
				d.fail("%s: theta events must have strictly increasing \"at\" slots", ctx)
			}
			at = th.At
			doc.Thetas = append(doc.Thetas, th)
		case "crash":
			at = parseAt(d)
			switch {
			case !doc.Spec.Serve:
				d.fail("%s: crash needs run.serve: true", ctx)
			case at < 1:
				d.fail("%s: crash.at must be >= 1", ctx)
			case len(doc.Crashes) > 0 && at <= doc.Crashes[len(doc.Crashes)-1]:
				d.fail("%s: crash events must have strictly increasing \"at\" slots", ctx)
			}
			doc.Crashes = append(doc.Crashes, at)
		case "":
			d.fail("line %d: %s: missing \"action\"", item.line, ctx)
		default:
			d.fail("line %d: %s: unknown action %q (want churn, regional_outage, degrade_capacity, flash_crowd, stale_reports, theta, or crash)",
				item.line, ctx, action)
		}
		if err := d.finish(); err != nil {
			return err
		}
		if doc.Spec.Serve && action != "crash" {
			return fmt.Errorf("scenario: %s: serve mode supports only crash events, got %s", ctx, action)
		}
		// An event past the last slot would never fire; refuse it rather
		// than pass a run it never touched.
		if at >= doc.World.Slots {
			return fmt.Errorf("scenario: %s: %s.at %d outside the %d-slot run", ctx, action, at, doc.World.Slots)
		}
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

// validate cross-checks the sections the decoders could not: serve
// mode against the stress section and slot assertions, and explicit
// whole-run families against their stress generators. Fault parameter
// ranges are validated by fault.Scenario.Validate when Execute runs.
func (doc *Doc) validate() error {
	if doc.Spec.Serve && doc.Stress != nil {
		return fmt.Errorf("scenario: run.serve does not support the stress section")
	}
	if doc.Spec.Serve && len(doc.SlotAsserts) > 0 {
		return fmt.Errorf("scenario: run.serve does not support assert_slot (serve runs have no per-slot sim metrics)")
	}
	if doc.Faults.Churn != nil && doc.Stress != nil && doc.Stress.Churn != nil {
		return fmt.Errorf("scenario: explicit churn event and stress.churn both set; keep one")
	}
	if doc.Faults.Staleness != nil && doc.Stress != nil && doc.Stress.Staleness != nil {
		return fmt.Errorf("scenario: explicit stale_reports event and stress.stale_reports both set; keep one")
	}
	return nil
}
