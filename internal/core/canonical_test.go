package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
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
			Placement:     placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)}),
			OverflowToCDN: []int64{0, 4},
		}
	}
	ref := base().Canonical()
	mutations := map[string]func(*Plan){
		"flow amount":    func(p *Plan) { p.Flows[0].Amount = 4 },
		"redirect video": func(p *Plan) { p.Redirects[0].Video = 8 },
		"redirect count": func(p *Plan) { p.Redirects[0].Count = 1 },
		"placement video": func(p *Plan) {
			p.Placement = placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(9)})
		},
		"overflow": func(p *Plan) { p.OverflowToCDN[1] = 5 },
		"degraded": func(p *Plan) { p.Degraded = true },
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
		!decoded.Placement.Equal(&plan.Placement) || len(decoded.OverflowToCDN) != len(plan.OverflowToCDN) {
		t.Fatalf("decoded sections differ in length from the original plan")
	}

	// A hand-built plan exercising degraded, empty placement rows, and
	// empty sections round-trips too.
	hand := &Plan{
		Degraded:      true,
		Redirects:     []Redirect{{From: 2, To: 0, Video: 5, Count: 9}},
		Placement:     placementOf([]similarity.Set{similarity.NewSet(4, 1), similarity.NewSet()}),
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
		Placement:     placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)}),
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
// canonical bytes and names which of its two checks refused the rest
// (the inputs are TestInstallVerification's corruptions).
func TestVerifyCanonical(t *testing.T) {
	good := (&Plan{
		Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
		Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
		Placement:     placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)}),
		OverflowToCDN: []int64{0, 4},
	}).Canonical()
	plan, err := VerifyCanonical(good, DigestOf(good))
	if err != nil || !bytes.Equal(plan.Canonical(), good) {
		t.Fatalf("genuine bytes: plan %v, err %v", plan, err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	// Placement row 0 lists 2 before 1: not what AppendCanonical writes
	// for any plan.
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
		{"unsorted placement, own digest", unsorted, DigestOf(unsorted), ErrCanonicalParse},
		{"truncated body, own digest", truncated, DigestOf(truncated), ErrCanonicalParse},
	}
	for _, tc := range cases {
		if plan, err := VerifyCanonical(tc.canonical, tc.digest); plan != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: plan %v, err %v, want %v", tc.name, plan, err, tc.want)
		}
	}
}

// TestParseCanonicalRejectsNonCanonical: every spelling the grammar
// could be read to allow but AppendCanonical never writes is refused
// with ErrCanonicalParse — that refusal is what lets acceptance stand
// in for the re-encode.
func TestParseCanonicalRejectsNonCanonical(t *testing.T) {
	good := (&Plan{
		Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
		Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
		Placement:     placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)}),
		OverflowToCDN: []int64{0, 4},
	}).Canonical()
	if _, err := ParseCanonical(good); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	swap := func(old, new string) []byte {
		t.Helper()
		out := bytes.Replace(good, []byte(old), []byte(new), 1)
		if bytes.Equal(out, good) {
			t.Fatalf("%q does not occur in the good plan", old)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"leading zero in a field", swap("f 0 1 3", "f 0 1 03")},
		{"leading zero in a count", swap("flows 1", "flows 01")},
		{"leading zero in a row label", swap("p 1 7", "p 01 7")},
		{"leading zero in a placement id", swap("p 1 7", "p 1 07")},
		{"leading zero in an overflow entry", swap("overflow 0 4", "overflow 0 04")},
		{"zero written 00", swap("f 0 1 3", "f 00 1 3")},
		{"minus zero in a field", swap("f 0 1 3", "f -0 1 3")},
		{"minus zero in a count", swap("redirects 1\nr", "redirects -0\nr")},
		{"minus zero as a row label", swap("p 0 1 2", "p -0 1 2")},
		{"plus sign in a field", swap("f 0 1 3", "f 0 1 +3")},
		{"plus sign in a count", swap("flows 1", "flows +1")},
		{"plus sign in a placement id", swap("p 1 7", "p 1 +7")},
		{"degraded flag 01", swap("degraded 0", "degraded 00")},
		{"amount above int64", swap("f 0 1 3", "f 0 1 9223372036854775808")},
		{"amount below int64", swap("f 0 1 3", "f 0 1 -9223372036854775809")},
		{"amount of twenty digits", swap("f 0 1 3", "f 0 1 10000000000000000000")},
		{"flow hotspot above HotspotID", swap("f 0 1 3", "f 2147483648 1 3")},
		{"redirect hotspot below HotspotID", swap("r 0 1 7 2", "r 0 -2147483649 7 2")},
		{"redirect video above VideoID", swap("r 0 1 7 2", "r 0 1 2147483648 2")},
		{"placement id above VideoID", swap("p 1 7", "p 1 7 2147483648")},
		{"placement ids descending", swap("p 0 1 2", "p 0 2 1")},
		{"placement id repeated", swap("p 0 1 2", "p 0 1 1 2")},
		{"row label out of sequence", swap("p 1 7", "p 2 7")},
		{"row label repeated", swap("p 1 7", "p 0 7")},
		{"negative count", swap("flows 1", "flows -1")},
		{"count above the cap", swap("flows 1", "flows 268435457")},
		{"negative placement count", swap("placement 2", "placement -2")},
		{"extra newline between sections", swap("degraded 0\n", "degraded 0\n\n")},
		{"missing newline after a row", swap("p 1 7\n", "p 1 7")},
		{"missing final newline", good[:len(good)-1]},
		{"extra final newline", append(append([]byte(nil), good...), '\n')},
		{"trailing bytes", append(append([]byte(nil), good...), 'x')},
		{"trailing space in a row", swap("p 1 7\n", "p 1 7 \n")},
		{"double space in a row", swap("p 0 1 2", "p 0 1  2")},
		{"trailing space in overflow", swap("overflow 0 4\n", "overflow 0 4 \n")},
		{"space before the overflow newline", swap("overflow 0 4", "overflow 0 4 ")},
		{"tab for a space", swap("f 0 1 3", "f 0\t1 3")},
		{"carriage return", swap("flows 1\n", "flows 1\r\n")},
	}
	for _, tc := range cases {
		if d, err := ParseCanonical(tc.data); d != nil || !errors.Is(err, ErrCanonicalParse) {
			t.Errorf("%s: decoded %v, err %v, want ErrCanonicalParse", tc.name, d, err)
		}
		if _, ok := referenceAccepts(tc.data); ok {
			t.Errorf("%s: the reference accepts it too — not a non-canonical spelling", tc.name)
		}
	}
}

// TestParseCanonicalExtremes: the integer range is exactly
// strconv.ParseInt's — MinInt64 included — and ids take all of int32.
func TestParseCanonicalExtremes(t *testing.T) {
	p := &Plan{
		Flows: []FlowEdge{
			{From: math.MinInt32, To: math.MaxInt32, Amount: math.MinInt64},
			{From: -1, To: 0, Amount: math.MaxInt64},
		},
		Redirects:     []Redirect{{From: math.MaxInt32, To: math.MinInt32, Video: math.MinInt32, Count: math.MinInt64}},
		Placement:     placementOf([]similarity.Set{similarity.NewSet(math.MinInt32, -1, 0, math.MaxInt32)}),
		OverflowToCDN: []int64{math.MinInt64, math.MaxInt64, 0},
	}
	canonical := p.Canonical()
	d, err := ParseCanonical(canonical)
	if err != nil {
		t.Fatalf("extremes rejected: %v\n%s", err, canonical)
	}
	if !bytes.Equal(refPlanOf(d).Canonical(), canonical) {
		t.Fatalf("extremes did not decode to the plan they encode")
	}
	if !d.Placement.Contains(0, math.MinInt32) || !d.Placement.Contains(0, math.MaxInt32) ||
		d.Placement.Contains(0, 1) || d.Placement.Contains(1, 0) || d.Placement.Contains(-1, 0) ||
		d.Placement.Contains(0, math.MaxInt32+1) {
		t.Fatalf("Contains disagrees with row %v", d.Placement.Row(0))
	}
}

// TestPlacementRunsContains holds Contains to a linear scan on every
// row of a real plan, at every id, the ids either side of it and the
// ends of the int32 range.
func TestPlacementRunsContains(t *testing.T) {
	seeds := canonicalSeeds(t)
	d, err := ParseCanonical(seeds[len(seeds)-1])
	if err != nil {
		t.Fatal(err)
	}
	for h := -1; h <= d.Placement.Rows(); h++ {
		var row []int32
		if h >= 0 && h < d.Placement.Rows() {
			row = d.Placement.Row(h)
		}
		probes := []int{math.MinInt32, -1, 0, math.MaxInt32}
		for _, v := range row {
			probes = append(probes, int(v)-1, int(v), int(v)+1)
		}
		for _, v := range probes {
			if got, want := d.Placement.Contains(h, v), slices.Contains(row, int32(v)); got != want {
				t.Fatalf("Contains(%d, %d) = %v, row %v", h, v, got, row)
			}
		}
	}
}

// canonicalSeeds are plans FuzzCanonicalDecode starts from: the table
// plans above, real rounds on lineWorld, a degraded plan with an empty
// placement row, and the empty plan.
func canonicalSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{
		(&Plan{
			Flows:         []FlowEdge{{From: 0, To: 1, Amount: 3}},
			Redirects:     []Redirect{{From: 0, To: 1, Video: 7, Count: 2}},
			Placement:     placementOf([]similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(7)}),
			OverflowToCDN: []int64{0, 4},
		}).Canonical(),
		(&Plan{
			Degraded:      true,
			Redirects:     []Redirect{{From: 2, To: 0, Video: 5, Count: 9}},
			Placement:     placementOf([]similarity.Set{similarity.NewSet(4, 1), similarity.NewSet()}),
			OverflowToCDN: []int64{7, 0},
		}).Canonical(),
		(&Plan{}).Canonical(),
	}
	for _, seed := range []int64{9, 3} {
		w := lineWorld(12, 0.4, 55, 30)
		s, err := New(w, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.ScheduleRound(randomDemand(w, 500, 120, seed), Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, plan.Canonical())
	}
	return seeds
}

// FuzzCanonicalDecode holds ParseCanonical to the reference: it must
// accept exactly the inputs the reference parses *and* re-encodes to
// identical bytes (with placement ids inside trace.VideoID), and where
// both accept, decode the same content.
func FuzzCanonicalDecode(f *testing.F) {
	for _, s := range canonicalSeeds(f) {
		if _, err := ParseCanonical(s); err != nil {
			f.Fatalf("seed rejected: %v", err)
		}
		f.Add(s)
		f.Add(bytes.Replace(s, []byte(" 1"), []byte(" 01"), 1))
		f.Add(bytes.Replace(s, []byte("\n"), []byte(" \n"), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseCanonical(data)
		ref, ok := referenceAccepts(data)
		if (err == nil) != ok {
			t.Fatalf("ParseCanonical err %v, reference accepts %v, on %q", err, ok, data)
		}
		if err != nil {
			if !errors.Is(err, ErrCanonicalParse) {
				t.Fatalf("error %v does not wrap ErrCanonicalParse", err)
			}
			return
		}
		got := refPlanOf(d)
		if got.Degraded != ref.Degraded || !slices.Equal(got.Flows, ref.Flows) ||
			!slices.Equal(got.Redirects, ref.Redirects) || !slices.Equal(got.OverflowToCDN, ref.OverflowToCDN) ||
			len(got.Placement) != len(ref.Placement) {
			t.Fatalf("decoded %+v, reference %+v", got, ref)
		}
		for h := range ref.Placement {
			row := d.Placement.Row(h)
			want := ref.Placement[h].Sorted()
			if len(row) != len(want) {
				t.Fatalf("row %d: %v, reference %v", h, row, want)
			}
			for i, v := range row {
				if int(v) != want[i] {
					t.Fatalf("row %d: %v, reference %v", h, row, want)
				}
			}
		}
	})
}

// BenchmarkVerifyCanonical times the plan gate — the strict one-pass
// decoder and the parse + re-encode + compare reference it replaced —
// on a real round's plan at 310 and 1,240 hotspots
// (BenchmarkReplicate's inputs).
func BenchmarkVerifyCanonical(b *testing.B) {
	for _, bc := range []struct {
		name                string
		m, requests, videos int
	}{{"m310", 310, 12500, 15000}, {"m1240", 1240, 50000, 15000}} {
		world := lineWorld(bc.m, 0.1, 30, 40)
		s, err := New(world, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := s.ScheduleRound(randomDemand(world, bc.requests, bc.videos, 1), Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		canonical := plan.Canonical()
		digest := DigestOf(canonical)
		b.Run(bc.name+"/strict", func(b *testing.B) {
			b.SetBytes(int64(len(canonical)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := VerifyCanonical(canonical, digest); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(len(canonical)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := referenceVerifyCanonical(canonical, digest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCanonicalSetOrderIndependent checks placement serialisation does
// not depend on map insertion order.
func TestCanonicalSetOrderIndependent(t *testing.T) {
	a := &Plan{Placement: placementOf([]similarity.Set{similarity.NewSet(3, 1, 2)}), OverflowToCDN: []int64{0}}
	b := &Plan{Placement: placementOf([]similarity.Set{similarity.NewSet(2, 3, 1)}), OverflowToCDN: []int64{0}}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("set insertion order leaked into canonical bytes")
	}
}
