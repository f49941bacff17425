package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Op is an assertion comparison operator.
type Op int

const (
	OpLT Op = iota + 1
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

var ops = map[string]Op{
	"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE, "==": OpEQ, "!=": OpNE,
}

// Assertion is one parsed "ident op value" expression.
type Assertion struct {
	// Raw is the source expression, used verbatim in reports.
	Raw   string
	Ident string
	Op    Op
	// Value is the numeric right-hand side (unused for bools).
	Value float64
	// IsBool marks a boolean comparison (slot "degraded" only).
	IsBool    bool
	BoolValue bool
	Line      int
}

// SlotAssertion is an assertion evaluated against every applied slot in
// [From, To) — To == -1 means the end of the run.
type SlotAssertion struct {
	Assertion
	From, To int
}

// window renders the assertion's slot window for reports.
func (a SlotAssertion) window() string {
	if a.From == 0 && a.To == -1 {
		return "all slots"
	}
	if a.To == -1 {
		return fmt.Sprintf("slots %d..end", a.From)
	}
	return fmt.Sprintf("slots [%d, %d)", a.From, a.To)
}

// covers reports whether the assertion applies to slot.
func (a SlotAssertion) covers(slot int) bool {
	return slot >= a.From && (a.To == -1 || slot < a.To)
}

// runIdents names the run-level sim-metric vocabulary. Any other
// identifier containing a '.' resolves against the obs registry
// snapshot's counters (e.g. fault.cause.outage, core.degraded_rounds).
var runIdents = map[string]func(*sim.Metrics) float64{
	"TotalRequests":         func(m *sim.Metrics) float64 { return float64(m.TotalRequests) },
	"ServedByHotspot":       func(m *sim.Metrics) float64 { return float64(m.ServedByHotspot) },
	"ServedByCDN":           func(m *sim.Metrics) float64 { return float64(m.ServedByCDN) },
	"Infeasible":            func(m *sim.Metrics) float64 { return float64(m.Infeasible) },
	"HotspotServingRatio":   func(m *sim.Metrics) float64 { return m.HotspotServingRatio },
	"AvgAccessDistanceKm":   func(m *sim.Metrics) float64 { return m.AvgAccessDistanceKm },
	"Replicas":              func(m *sim.Metrics) float64 { return float64(m.Replicas) },
	"ReplicationCost":       func(m *sim.Metrics) float64 { return m.ReplicationCost },
	"CDNServerLoad":         func(m *sim.Metrics) float64 { return m.CDNServerLoad },
	"OfflineHotspotSlots":   func(m *sim.Metrics) float64 { return float64(m.OfflineHotspotSlots) },
	"FlashInjectedRequests": func(m *sim.Metrics) float64 { return float64(m.FlashInjectedRequests) },
	"DegradedRounds":        func(m *sim.Metrics) float64 { return float64(m.DegradedRounds) },
	"StrandedRequests":      func(m *sim.Metrics) float64 { return float64(m.StrandedRequests) },
	"FallbackServedByCDN":   func(m *sim.Metrics) float64 { return float64(m.FallbackServedByCDN) },
}

// slotIdents names the slot-level vocabulary over sim.SlotMetrics.
// "degraded" is the lone boolean.
var slotIdents = map[string]func(sim.SlotMetrics) float64{
	"slot":           func(s sim.SlotMetrics) float64 { return float64(s.Slot) },
	"requests":       func(s sim.SlotMetrics) float64 { return float64(s.Requests) },
	"served_hotspot": func(s sim.SlotMetrics) float64 { return float64(s.ServedByHotspot) },
	"served_cdn":     func(s sim.SlotMetrics) float64 { return float64(s.ServedByCDN) },
	"replicas":       func(s sim.SlotMetrics) float64 { return float64(s.Replicas) },
	"serving_ratio":  func(s sim.SlotMetrics) float64 { return s.HotspotServingRatio },
	"infeasible":     func(s sim.SlotMetrics) float64 { return float64(s.Infeasible) },
	"stranded":       func(s sim.SlotMetrics) float64 { return float64(s.Stranded) },
}

// parseAssertion parses "ident op value". Slot assertions draw from the
// slot vocabulary (plus boolean "degraded"); run assertions draw from
// the sim-metric vocabulary or dotted obs counter names.
func parseAssertion(expr string, line int, slotLevel bool) (Assertion, error) {
	fields := strings.Fields(expr)
	if len(fields) != 3 {
		return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q must be \"ident op value\"", line, expr)
	}
	a := Assertion{Raw: strings.Join(fields, " "), Ident: fields[0], Line: line}
	op, ok := ops[fields[1]]
	if !ok {
		return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: unknown operator %q (want <, <=, >, >=, ==, or !=)", line, expr, fields[1])
	}
	a.Op = op
	switch fields[2] {
	case "true", "false":
		a.IsBool = true
		a.BoolValue = fields[2] == "true"
		if op != OpEQ && op != OpNE {
			return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: boolean comparisons support only == and !=", line, expr)
		}
	default:
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: %q is not a number or bool", line, expr, fields[2])
		}
		a.Value = v
	}
	if slotLevel {
		if a.IsBool {
			if a.Ident != "degraded" {
				return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: only \"degraded\" is boolean", line, expr)
			}
		} else if _, ok := slotIdents[a.Ident]; !ok {
			return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: unknown slot metric %q (want %s, or boolean degraded)",
				line, expr, a.Ident, strings.Join(sortedKeys(slotIdents), ", "))
		}
	} else {
		if a.IsBool {
			return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: run-level assertions are numeric (use DegradedRounds == 0)", line, expr)
		}
		if _, ok := runIdents[a.Ident]; !ok && !strings.Contains(a.Ident, ".") {
			return Assertion{}, fmt.Errorf("scenario: line %d: assertion %q: unknown run metric %q (want a sim metric like %s, or a dotted obs counter like fault.cause.outage)",
				line, expr, a.Ident, strings.Join(sortedRunIdents(), ", "))
		}
	}
	return a, nil
}

// compare applies the operator to a numeric left-hand side.
func (a Assertion) compare(v float64) bool {
	switch a.Op {
	case OpLT:
		return v < a.Value
	case OpLE:
		return v <= a.Value
	case OpGT:
		return v > a.Value
	case OpGE:
		return v >= a.Value
	case OpEQ:
		return v == a.Value
	case OpNE:
		return v != a.Value
	default:
		return false
	}
}

// compareBool applies ==/!= to a boolean left-hand side.
func (a Assertion) compareBool(v bool) bool {
	if a.Op == OpEQ {
		return v == a.BoolValue
	}
	return v != a.BoolValue
}

// evalRun resolves the assertion's identifier against the run metrics
// (sim vocabulary first, then the snapshot's counters) and compares.
func (a Assertion) evalRun(m *sim.Metrics, snap obs.Snapshot) (value float64, pass bool, err error) {
	if fn, ok := runIdents[a.Ident]; ok {
		if m == nil {
			return 0, false, fmt.Errorf("run metric %q is not available in serve mode (assert a dotted counter like serve.plans_mismatched instead)", a.Ident)
		}
		v := fn(m)
		return v, a.compare(v), nil
	}
	for _, c := range snap.Counters {
		if c.Name == a.Ident {
			v := float64(c.Value)
			return v, a.compare(v), nil
		}
	}
	return 0, false, fmt.Errorf("no counter %q in the run's metrics registry (is the fault family / subsystem it counts active?)", a.Ident)
}

// evalSlot evaluates the assertion against one slot's metrics.
func (a SlotAssertion) evalSlot(s sim.SlotMetrics) (value float64, pass bool) {
	if a.IsBool {
		if a.compareBool(s.Degraded) {
			return 0, true
		}
		return boolVal(s.Degraded), false
	}
	v := slotIdents[a.Ident](s)
	return v, a.compare(v)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]func(sim.SlotMetrics) float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedRunIdents() []string {
	out := make([]string, 0, len(runIdents))
	for k := range runIdents {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
