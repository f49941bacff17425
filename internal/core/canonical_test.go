package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/similarity"
)

// TestCanonicalDeterministic locks in the canonical encoding's
// reproducibility: scheduling the same demand on fresh schedulers must
// yield byte-identical canonical plans and equal digests.
func TestCanonicalDeterministic(t *testing.T) {
	w := lineWorld(12, 0.4, 55, 30)
	d := randomDemand(w, 500, 120, 9)
	a := mustPlan(t, w, DefaultParams(), d)
	b := mustPlan(t, w, DefaultParams(), d)
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical encodings differ for identical rounds:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %x vs %x", a.Digest(), b.Digest())
	}
}

// TestCanonicalDistinguishesPlans checks the encoding reflects every
// logical plan field: perturbing any one of them changes the bytes.
func TestCanonicalDistinguishesPlans(t *testing.T) {
	base := func() *Plan {
		return &Plan{
			Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
			Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
			Placement:     []similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)},
			OverflowToCDN: []int64{0, 4},
		}
	}
	ref := base().Canonical()
	mutations := map[string]func(*Plan){
		"flow amount":     func(p *Plan) { p.Flows[0].Amount = 4 },
		"redirect video":  func(p *Plan) { p.Redirects[0].Video = 8 },
		"redirect count":  func(p *Plan) { p.Redirects[0].Count = 1 },
		"placement video": func(p *Plan) { p.Placement[1] = similarity.NewSet(9) },
		"overflow":        func(p *Plan) { p.OverflowToCDN[1] = 5 },
		"degraded":        func(p *Plan) { p.Degraded = true },
	}
	for name, mutate := range mutations {
		p := base()
		mutate(p)
		if bytes.Equal(ref, p.Canonical()) {
			t.Errorf("%s: mutation not reflected in canonical encoding", name)
		}
	}
	// Stats and events are excluded by design.
	p := base()
	p.Stats.MovedFlow = 99
	p.Events = nil
	if !bytes.Equal(ref, p.Canonical()) {
		t.Errorf("stats leaked into the canonical encoding")
	}
}

// TestParseCanonicalRoundTrip: decoding a real scheduled plan's
// canonical bytes and re-encoding must reproduce the identical bytes
// and digest — the fidelity contract the serving tier's plan
// distribution channel verifies on every swap.
func TestParseCanonicalRoundTrip(t *testing.T) {
	w := lineWorld(12, 0.4, 55, 30)
	d := randomDemand(w, 500, 120, 9)
	plan := mustPlan(t, w, DefaultParams(), d)
	canonical := plan.Canonical()

	decoded, err := ParseCanonical(canonical)
	if err != nil {
		t.Fatalf("ParseCanonical: %v", err)
	}
	if !bytes.Equal(decoded.Canonical(), canonical) {
		t.Fatalf("re-encoded plan differs from original canonical bytes")
	}
	if decoded.Digest() != plan.Digest() {
		t.Fatalf("digest changed across the round trip")
	}
	if DigestOf(canonical) != plan.Digest() {
		t.Fatalf("DigestOf(canonical) != plan.Digest()")
	}
	if len(decoded.Flows) != len(plan.Flows) || len(decoded.Redirects) != len(plan.Redirects) ||
		len(decoded.Placement) != len(plan.Placement) || len(decoded.OverflowToCDN) != len(plan.OverflowToCDN) {
		t.Fatalf("decoded sections differ in length from the original plan")
	}

	// A hand-built plan exercising degraded, empty placement rows, and
	// empty sections round-trips too.
	hand := &Plan{
		Degraded:      true,
		Redirects:     []Redirect{{From: 2, To: 0, Video: 5, Count: 9}},
		Placement:     []similarity.Set{similarity.NewSet(4, 1), similarity.NewSet()},
		OverflowToCDN: []int64{7, 0},
	}
	hb := hand.Canonical()
	hd, err := ParseCanonical(hb)
	if err != nil {
		t.Fatalf("ParseCanonical(hand-built): %v", err)
	}
	if !bytes.Equal(hd.Canonical(), hb) {
		t.Fatalf("hand-built plan did not round-trip")
	}
	if !hd.Degraded {
		t.Fatalf("degraded flag lost in round trip")
	}

	// The empty plan is the minimal valid encoding.
	ed, err := ParseCanonical((&Plan{}).Canonical())
	if err != nil {
		t.Fatalf("ParseCanonical(empty): %v", err)
	}
	if !bytes.Equal(ed.Canonical(), (&Plan{}).Canonical()) {
		t.Fatalf("empty plan did not round-trip")
	}
}

// TestParseCanonicalRejectsMalformed: the decoder is strict — every
// kind of corruption is an error, never a silently wrong plan.
func TestParseCanonicalRejectsMalformed(t *testing.T) {
	good := (&Plan{
		Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
		Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
		Placement:     []similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)},
		OverflowToCDN: []int64{0, 4},
	}).Canonical()
	if _, err := ParseCanonical(good); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty input":       nil,
		"bad magic":         []byte("plan v2\n"),
		"truncated":         good[:len(good)/2],
		"trailing bytes":    append(append([]byte{}, good...), 'x'),
		"negative count":    bytes.Replace(good, []byte("flows 1"), []byte("flows -1"), 1),
		"overlong count":    bytes.Replace(good, []byte("flows 1"), []byte("flows 999999999999"), 1),
		"non-numeric field": bytes.Replace(good, []byte("f 0 1 3"), []byte("f 0 1 x"), 1),
		"bad degraded":      bytes.Replace(good, []byte("degraded 0"), []byte("degraded 2"), 1),
		"mislabelled row":   bytes.Replace(good, []byte("p 0 "), []byte("p 9 "), 1),
		"bad overflow":      bytes.Replace(good, []byte("overflow 0 4"), []byte("overflow 0 x"), 1),
		"count mismatch":    bytes.Replace(good, []byte("flows 1"), []byte("flows 2"), 1),
	}
	for name, data := range cases {
		if _, err := ParseCanonical(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVerifyCanonical: the one verifier accepts exactly the advertised
// canonical bytes and names which of its three checks refused the rest
// (the inputs are TestInstallVerification's corruptions).
func TestVerifyCanonical(t *testing.T) {
	good := (&Plan{
		Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
		Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
		Placement:     []similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)},
		OverflowToCDN: []int64{0, 4},
	}).Canonical()
	plan, err := VerifyCanonical(good, DigestOf(good))
	if err != nil || !bytes.Equal(plan.Canonical(), good) {
		t.Fatalf("genuine bytes: plan %v, err %v", plan, err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	// Parses (placement row 0 lists 2 before 1) but is not what
	// AppendCanonical writes for that plan.
	unsorted := bytes.Replace(good, []byte("p 0 1 2"), []byte("p 0 2 1"), 1)
	truncated := good[:len(good)-3]
	cases := []struct {
		name      string
		canonical []byte
		digest    uint64
		want      error
	}{
		{"flipped byte under the genuine digest", flipped, DigestOf(good), ErrCanonicalDigest},
		{"advertised digest off by one", good, DigestOf(good) + 1, ErrCanonicalDigest},
		{"parseable but non-canonical, own digest", unsorted, DigestOf(unsorted), ErrCanonicalRoundTrip},
		{"truncated body, own digest", truncated, DigestOf(truncated), ErrCanonicalParse},
	}
	for _, tc := range cases {
		if plan, err := VerifyCanonical(tc.canonical, tc.digest); plan != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: plan %v, err %v, want %v", tc.name, plan, err, tc.want)
		}
	}
}

// TestCanonicalSetOrderIndependent checks placement serialisation does
// not depend on map insertion order.
func TestCanonicalSetOrderIndependent(t *testing.T) {
	a := &Plan{Placement: []similarity.Set{similarity.NewSet(3, 1, 2)}, OverflowToCDN: []int64{0}}
	b := &Plan{Placement: []similarity.Set{similarity.NewSet(2, 3, 1)}, OverflowToCDN: []int64{0}}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("set insertion order leaked into canonical bytes")
	}
}
