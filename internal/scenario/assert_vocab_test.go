package scenario

import (
	"testing"

	"repro/internal/sim"
)

// TestOpStrings pins the operator rendering, including the
// out-of-range fallback used in internal error messages.
func TestOpStrings(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{OpLT, "<"}, {OpLE, "<="}, {OpGT, ">"}, {OpGE, ">="},
		{OpEQ, "=="}, {OpNE, "!="}, {Op(0), "op(0)"},
	} {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("Op(%d).String() = %q, want %q", int(tc.op), got, tc.want)
		}
	}
}

// TestCompareOperators covers every arm of the numeric comparison plus
// the boolean ==/!= path.
func TestCompareOperators(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		v    float64
		want bool
	}{
		{OpLT, 1, true}, {OpLT, 2, false},
		{OpLE, 2, true}, {OpLE, 3, false},
		{OpGT, 3, true}, {OpGT, 2, false},
		{OpGE, 2, true}, {OpGE, 1, false},
		{OpEQ, 2, true}, {OpEQ, 1, false},
		{OpNE, 1, true}, {OpNE, 2, false},
		{Op(0), 2, false}, // unknown operator never passes
	} {
		a := Assertion{Op: tc.op, Value: 2}
		if got := a.compare(tc.v); got != tc.want {
			t.Errorf("compare(%v %s 2) = %v, want %v", tc.v, tc.op, got, tc.want)
		}
	}
	eq := Assertion{Op: OpEQ, BoolValue: true}
	ne := Assertion{Op: OpNE, BoolValue: true}
	if !eq.compareBool(true) || eq.compareBool(false) {
		t.Error("compareBool == arm wrong")
	}
	if ne.compareBool(true) || !ne.compareBool(false) {
		t.Error("compareBool != arm wrong")
	}
}

// TestRunIdentVocabulary drives every run-level identifier through a
// metrics struct with distinct field values, so a renamed or re-wired
// accessor cannot slip through.
func TestRunIdentVocabulary(t *testing.T) {
	m := &sim.Metrics{
		TotalRequests:         1,
		ServedByHotspot:       2,
		ServedByCDN:           3,
		Infeasible:            4,
		HotspotServingRatio:   5,
		AvgAccessDistanceKm:   6,
		Replicas:              7,
		ReplicationCost:       8,
		CDNServerLoad:         9,
		OfflineHotspotSlots:   10,
		FlashInjectedRequests: 11,
		DegradedRounds:        12,
		StrandedRequests:      13,
		FallbackServedByCDN:   14,
	}
	want := map[string]float64{
		"TotalRequests": 1, "ServedByHotspot": 2, "ServedByCDN": 3,
		"Infeasible": 4, "HotspotServingRatio": 5, "AvgAccessDistanceKm": 6,
		"Replicas": 7, "ReplicationCost": 8, "CDNServerLoad": 9,
		"OfflineHotspotSlots": 10, "FlashInjectedRequests": 11,
		"DegradedRounds": 12, "StrandedRequests": 13, "FallbackServedByCDN": 14,
	}
	if len(want) != len(runIdents) {
		t.Fatalf("vocabulary drifted: test covers %d idents, runIdents has %d", len(want), len(runIdents))
	}
	for ident, w := range want {
		fn, ok := runIdents[ident]
		if !ok {
			t.Errorf("runIdents missing %q", ident)
			continue
		}
		if got := fn(m); got != w {
			t.Errorf("runIdents[%q] = %v, want %v", ident, got, w)
		}
	}
}

// TestSlotIdentVocabulary does the same for the slot-level vocabulary.
func TestSlotIdentVocabulary(t *testing.T) {
	s := sim.SlotMetrics{
		Slot: 1, Requests: 2, ServedByHotspot: 3, ServedByCDN: 4,
		Replicas: 5, HotspotServingRatio: 6, Infeasible: 7, Stranded: 8,
	}
	want := map[string]float64{
		"slot": 1, "requests": 2, "served_hotspot": 3, "served_cdn": 4,
		"replicas": 5, "serving_ratio": 6, "infeasible": 7, "stranded": 8,
	}
	if len(want) != len(slotIdents) {
		t.Fatalf("vocabulary drifted: test covers %d idents, slotIdents has %d", len(want), len(slotIdents))
	}
	for ident, w := range want {
		fn, ok := slotIdents[ident]
		if !ok {
			t.Errorf("slotIdents missing %q", ident)
			continue
		}
		if got := fn(s); got != w {
			t.Errorf("slotIdents[%q] = %v, want %v", ident, got, w)
		}
	}
}

// TestSlotAssertionWindow pins the report rendering and coverage of
// slot windows.
func TestSlotAssertionWindow(t *testing.T) {
	all := SlotAssertion{From: 0, To: -1}
	if all.window() != "all slots" || !all.covers(0) || !all.covers(99) {
		t.Errorf("all-slots window: %q", all.window())
	}
	open := SlotAssertion{From: 3, To: -1}
	if open.window() != "slots 3..end" || open.covers(2) || !open.covers(3) {
		t.Errorf("open window: %q", open.window())
	}
	closed := SlotAssertion{From: 2, To: 5}
	if closed.window() != "slots [2, 5)" || closed.covers(5) || !closed.covers(4) {
		t.Errorf("closed window: %q", closed.window())
	}
}

// TestNodeKindStrings pins the YAML node-kind names used in parse
// errors.
func TestNodeKindStrings(t *testing.T) {
	for _, tc := range []struct {
		k    nodeKind
		want string
	}{
		{scalarNode, "scalar"},
		{mapNode, "mapping"},
		{seqNode, "sequence"},
		{nodeKind(9), "node(9)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("nodeKind(%d).String() = %q, want %q", int(tc.k), got, tc.want)
		}
	}
}
