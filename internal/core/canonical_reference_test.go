package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// This file keeps the plan gate ParseCanonical's strict decode
// replaced, as the reference it is held to: a lenient parse into fresh maps
// (referenceParseCanonical), then a full re-encode and a byte compare
// to rule out every spelling AppendCanonical would not have written
// (referenceVerifyCanonical).

var errReferenceRoundTrip = errors.New("core: plan bytes did not round-trip")

// referenceVerifyCanonical is the digest → parse → re-encode → compare
// gate VerifyCanonical used to be.
func referenceVerifyCanonical(canonical []byte, digest uint64) (*refPlan, error) {
	if got := DigestOf(canonical); got != digest {
		return nil, fmt.Errorf("%w: got %016x, advertised %016x", ErrCanonicalDigest, got, digest)
	}
	plan, err := referenceParseCanonical(canonical)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanonicalParse, err)
	}
	if !bytes.Equal(plan.Canonical(), canonical) {
		return nil, errReferenceRoundTrip
	}
	return plan, nil
}

// referenceAccepts reports whether the reference gate accepts
// canonical, restricted — as ParseCanonical is — to placement ids
// that fit trace.VideoID (similarity.Set holds any int, so the
// reference round-trips wider ids).
func referenceAccepts(canonical []byte) (*refPlan, bool) {
	plan, err := referenceVerifyCanonical(canonical, DigestOf(canonical))
	if err != nil {
		return nil, false
	}
	for _, set := range plan.Placement {
		for v := range set {
			if v < math.MinInt32 || v > math.MaxInt32 {
				return nil, false
			}
		}
	}
	return plan, true
}

// refPlan is a plan as the reference parses it: its placement rows are
// sets of any int, the form Plan held before its placement became runs.
type refPlan struct {
	Degraded      bool
	Flows         []FlowEdge
	Redirects     []Redirect
	Placement     []similarity.Set
	OverflowToCDN []int64
}

// Canonical encodes p through AppendCanonical. A placement id outside
// trace.VideoID has no run form; such a plan encodes as nothing, which
// no input equals.
func (p *refPlan) Canonical() []byte {
	for _, set := range p.Placement {
		for v := range set {
			if v < math.MinInt32 || v > math.MaxInt32 {
				return nil
			}
		}
	}
	plan := &Plan{Degraded: p.Degraded, Flows: p.Flows, Redirects: p.Redirects,
		Placement: placementOf(p.Placement), OverflowToCDN: p.OverflowToCDN}
	return plan.Canonical()
}

// refPlanOf converts a decoded plan to the reference's form.
func refPlanOf(d *Plan) *refPlan {
	p := &refPlan{
		Degraded:      d.Degraded,
		Flows:         d.Flows,
		Redirects:     d.Redirects,
		Placement:     make([]similarity.Set, d.Placement.Rows()),
		OverflowToCDN: d.OverflowToCDN,
	}
	for h := range p.Placement {
		set := make(similarity.Set)
		for _, v := range d.Placement.Row(h) {
			set.Add(int(v))
		}
		p.Placement[h] = set
	}
	return p
}

// referenceParseCanonical decodes a canonical plan encoding field by
// field with strconv. It accepts some spellings AppendCanonical never
// writes (leading zeros, '+', unsorted or repeated placement ids);
// referenceVerifyCanonical's re-encode catches those.
func referenceParseCanonical(canonical []byte) (*refPlan, error) {
	cp := canonicalParser{rest: canonical}
	p := &refPlan{}

	if err := cp.literal("plan v1\n"); err != nil {
		return nil, err
	}
	if err := cp.literal("degraded "); err != nil {
		return nil, err
	}
	deg, err := cp.int64Until('\n')
	if err != nil || (deg != 0 && deg != 1) {
		return nil, fmt.Errorf("core: canonical plan: bad degraded flag")
	}
	p.Degraded = deg == 1

	if err := cp.literal("flows "); err != nil {
		return nil, err
	}
	nf, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: flows header: %w", err)
	}
	p.Flows = make([]FlowEdge, 0, prealloc(nf))
	for i := int64(0); i < nf; i++ {
		if err := cp.literal("f "); err != nil {
			return nil, err
		}
		from, err1 := cp.int64Until(' ')
		to, err2 := cp.int64Until(' ')
		amt, err3 := cp.int64Until('\n')
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("core: canonical plan: flow %d malformed", i)
		}
		p.Flows = append(p.Flows, FlowEdge{From: trace.HotspotID(from), To: trace.HotspotID(to), Amount: amt})
	}

	if err := cp.literal("redirects "); err != nil {
		return nil, err
	}
	nr, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: redirects header: %w", err)
	}
	p.Redirects = make([]Redirect, 0, prealloc(nr))
	for i := int64(0); i < nr; i++ {
		if err := cp.literal("r "); err != nil {
			return nil, err
		}
		from, err1 := cp.int64Until(' ')
		to, err2 := cp.int64Until(' ')
		video, err3 := cp.int64Until(' ')
		count, err4 := cp.int64Until('\n')
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("core: canonical plan: redirect %d malformed", i)
		}
		p.Redirects = append(p.Redirects, Redirect{
			From: trace.HotspotID(from), To: trace.HotspotID(to),
			Video: trace.VideoID(video), Count: count,
		})
	}

	if err := cp.literal("placement "); err != nil {
		return nil, err
	}
	np, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: placement header: %w", err)
	}
	p.Placement = make([]similarity.Set, 0, prealloc(np))
	for i := int64(0); i < np; i++ {
		if err := cp.literal("p "); err != nil {
			return nil, err
		}
		line, err := cp.line()
		if err != nil {
			return nil, fmt.Errorf("core: canonical plan: placement row %d: %w", i, err)
		}
		fields := bytes.Split(line, []byte{' '})
		h, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil || h != i {
			return nil, fmt.Errorf("core: canonical plan: placement row %d labelled %q", i, fields[0])
		}
		set := make(similarity.Set, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(string(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("core: canonical plan: placement row %d video %q", i, f)
			}
			set.Add(int(v))
		}
		p.Placement = append(p.Placement, set)
	}

	if err := cp.literal("overflow"); err != nil {
		return nil, err
	}
	tail, err := cp.line()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: overflow row: %w", err)
	}
	if len(tail) > 0 {
		if tail[0] != ' ' {
			return nil, fmt.Errorf("core: canonical plan: overflow row malformed")
		}
		for _, f := range bytes.Split(tail[1:], []byte{' '}) {
			o, err := strconv.ParseInt(string(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("core: canonical plan: overflow entry %q", f)
			}
			p.OverflowToCDN = append(p.OverflowToCDN, o)
		}
	}
	if len(cp.rest) != 0 {
		return nil, fmt.Errorf("core: canonical plan: %d trailing bytes", len(cp.rest))
	}
	return p, nil
}

// prealloc clamps a declared section length to a safe preallocation
// hint: the sections still parse to their full declared size via
// append, but a corrupt header cannot force a huge upfront allocation.
func prealloc(n int64) int64 {
	const cap = 4096
	if n > cap {
		return cap
	}
	return n
}

// canonicalParser is a cursor over a canonical encoding.
type canonicalParser struct{ rest []byte }

// literal consumes an exact string.
func (cp *canonicalParser) literal(s string) error {
	if len(cp.rest) < len(s) || string(cp.rest[:len(s)]) != s {
		return fmt.Errorf("core: canonical plan: expected %q", s)
	}
	cp.rest = cp.rest[len(s):]
	return nil
}

// int64Until consumes a decimal integer terminated by sep (consuming
// the separator too).
func (cp *canonicalParser) int64Until(sep byte) (int64, error) {
	i := bytes.IndexByte(cp.rest, sep)
	if i < 0 {
		return 0, fmt.Errorf("missing %q separator", sep)
	}
	v, err := strconv.ParseInt(string(cp.rest[:i]), 10, 64)
	if err != nil {
		return 0, err
	}
	cp.rest = cp.rest[i+1:]
	return v, nil
}

// count consumes a non-negative section length terminated by newline,
// with a sanity cap so corrupt headers cannot force absurd
// preallocation.
func (cp *canonicalParser) count() (int64, error) {
	n, err := cp.int64Until('\n')
	if err != nil {
		return 0, err
	}
	if n < 0 || n > maxSection {
		return 0, fmt.Errorf("section length %d out of range", n)
	}
	return n, nil
}

// line consumes through the next newline, returning the bytes before
// it.
func (cp *canonicalParser) line() ([]byte, error) {
	i := bytes.IndexByte(cp.rest, '\n')
	if i < 0 {
		return nil, fmt.Errorf("unterminated line")
	}
	out := cp.rest[:i]
	cp.rest = cp.rest[i+1:]
	return out, nil
}
