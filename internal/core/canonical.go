package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// AppendCanonical appends a deterministic textual encoding of the
// plan's logical content to b and returns the extended buffer. Two
// plans encode identically iff they make the same scheduling decisions:
// the encoding covers flows, redirects, placement (video ids in sorted
// order), CDN overflow, and the degraded flag. Wall-clock stats and
// trace events are deliberately excluded — they never enter the
// determinism contract (see DESIGN.md §8). The flow and redirect slices
// are already in deterministic order for a deterministic round
// (TestScheduleRunTwiceIdentical), so the bytes are reproducible across
// processes, worker counts, and the online/offline entry points.
func (p *Plan) AppendCanonical(b []byte) []byte {
	b = append(b, "plan v1\ndegraded "...)
	b = appendBool(b, p.Degraded)
	b = append(b, "\nflows "...)
	b = strconv.AppendInt(b, int64(len(p.Flows)), 10)
	b = append(b, '\n')
	for _, f := range p.Flows {
		b = append(b, 'f', ' ')
		b = strconv.AppendInt(b, int64(f.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(f.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, f.Amount, 10)
		b = append(b, '\n')
	}
	b = append(b, "redirects "...)
	b = strconv.AppendInt(b, int64(len(p.Redirects)), 10)
	b = append(b, '\n')
	for _, r := range p.Redirects {
		b = append(b, 'r', ' ')
		b = strconv.AppendInt(b, int64(r.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Video), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, r.Count, 10)
		b = append(b, '\n')
	}
	b = append(b, "placement "...)
	b = strconv.AppendInt(b, int64(len(p.Placement)), 10)
	b = append(b, '\n')
	for h, set := range p.Placement {
		b = append(b, 'p', ' ')
		b = strconv.AppendInt(b, int64(h), 10)
		for _, v := range set.Sorted() {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, '\n')
	}
	b = append(b, "overflow"...)
	for _, o := range p.OverflowToCDN {
		b = append(b, ' ')
		b = strconv.AppendInt(b, o, 10)
	}
	return append(b, '\n')
}

// Canonical returns the plan's canonical encoding (AppendCanonical into
// a fresh buffer).
func (p *Plan) Canonical() []byte { return p.AppendCanonical(nil) }

// Digest returns the FNV-1a hash of the plan's canonical encoding: a
// compact fingerprint for plan-identity checks (the serving layer
// exposes it so lookups can be matched to the exact plan that answered
// them).
func (p *Plan) Digest() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p.Canonical())
	return h.Sum64()
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// DigestOf fingerprints an already-encoded canonical plan: the same
// FNV-1a hash Plan.Digest computes, without needing the Plan. The
// serving tier's plan-distribution channel uses it to verify received
// plan bytes against the digest the scheduler advertised.
func DigestOf(canonical []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(canonical)
	return h.Sum64()
}

// ParseCanonical decodes a canonical plan encoding back into a Plan
// holding the logical scheduling content: flows, redirects, placement,
// CDN overflow, and the degraded flag (stats and events are not part
// of the encoding and come back zero). It is the receive side of the
// serving tier's plan-distribution channel: each frontend instance
// reconstructs its serving plan from the distributed bytes rather
// than sharing the scheduler's. The parser is strict — any deviation
// from the AppendCanonical grammar is an error, never a guess — and
// for a well-formed input the round trip re-encodes to the identical
// bytes (certified in canonical_test.go and re-checked on every swap
// by the serving tier).
func ParseCanonical(canonical []byte) (*Plan, error) {
	cp := canonicalParser{rest: canonical}
	p := &Plan{}

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

// The three ways VerifyCanonical refuses plan bytes.
var (
	ErrCanonicalDigest    = errors.New("core: plan bytes do not hash to the advertised digest")
	ErrCanonicalParse     = errors.New("core: plan bytes do not parse")
	ErrCanonicalRoundTrip = errors.New("core: plan bytes did not round-trip")
)

// VerifyCanonical is the one gate received or recovered plan bytes
// pass before anything serves them: canonical must hash to the
// advertised digest, parse strictly, and re-encode to the identical
// bytes. Each failure wraps its own Err* sentinel.
func VerifyCanonical(canonical []byte, digest uint64) (*Plan, error) {
	if got := DigestOf(canonical); got != digest {
		return nil, fmt.Errorf("%w: got %016x, advertised %016x", ErrCanonicalDigest, got, digest)
	}
	plan, err := ParseCanonical(canonical)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanonicalParse, err)
	}
	if !bytes.Equal(plan.Canonical(), canonical) {
		return nil, ErrCanonicalRoundTrip
	}
	return plan, nil
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
	const maxSection = 1 << 28
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
