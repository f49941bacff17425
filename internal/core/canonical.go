package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/trace"
)

// AppendCanonical appends a deterministic textual encoding of the
// plan's logical content to b and returns the extended buffer. Two
// plans encode identically iff they make the same scheduling decisions:
// the encoding covers flows, redirects, placement (each row's video
// ids, ascending as the runs hold them), CDN overflow, and the degraded
// flag. Wall-clock stats and
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
	b = strconv.AppendInt(b, int64(p.Placement.Rows()), 10)
	b = append(b, '\n')
	for h := 0; h < p.Placement.Rows(); h++ {
		b = append(b, 'p', ' ')
		b = strconv.AppendInt(b, int64(h), 10)
		for _, v := range p.Placement.Row(h) {
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

// The two ways VerifyCanonical refuses plan bytes.
var (
	ErrCanonicalDigest = errors.New("core: plan bytes do not hash to the advertised digest")
	ErrCanonicalParse  = errors.New("core: plan bytes do not parse")
)

// maxSection caps a declared section length.
const maxSection = 1 << 28

// ParseCanonical decodes a canonical plan encoding in one pass into a
// Plan holding the logical scheduling content (Stats and Events are not
// part of the encoding and come back zero). It accepts exactly the
// bytes AppendCanonical can emit and rejects everything else with an
// error wrapping ErrCanonicalParse: a leading zero, "-0" or a '+'
// sign; an integer outside int64, or a hotspot or video id outside
// trace.HotspotID / trace.VideoID; placement ids that are not strictly
// ascending; a row label out of sequence; a section count that is
// negative or above 1<<28; a missing or extra separator, and trailing
// bytes. That grammar admits one encoding per plan, so
// accepting the bytes proves they re-encode to themselves: no
// re-encode is needed to verify them.
func ParseCanonical(canonical []byte) (*Plan, error) {
	d := decoder{b: canonical}
	p := &Plan{}

	d.literal("plan v1\ndegraded ")
	switch d.field('\n') {
	case 0:
	case 1:
		p.Degraded = true
	default:
		d.bad = true
	}
	if d.bad {
		return nil, d.errorf("header or degraded flag")
	}

	nf := d.count("flows ")
	if d.bad {
		return nil, d.errorf("flows header")
	}
	p.Flows = make([]FlowEdge, 0, d.capFor(nf, len("f 0 0 0\n")))
	for i := 0; i < nf; i++ {
		d.literal("f ")
		from := d.id(' ')
		to := d.id(' ')
		amount := d.field('\n')
		if d.bad {
			return nil, d.errorf("flow %d", i)
		}
		p.Flows = append(p.Flows, FlowEdge{From: trace.HotspotID(from), To: trace.HotspotID(to), Amount: amount})
	}

	nr := d.count("redirects ")
	if d.bad {
		return nil, d.errorf("redirects header")
	}
	p.Redirects = make([]Redirect, 0, d.capFor(nr, len("r 0 0 0 0\n")))
	for i := 0; i < nr; i++ {
		d.literal("r ")
		from := d.id(' ')
		to := d.id(' ')
		video := d.id(' ')
		count := d.field('\n')
		if d.bad {
			return nil, d.errorf("redirect %d", i)
		}
		p.Redirects = append(p.Redirects, Redirect{
			From: trace.HotspotID(from), To: trace.HotspotID(to),
			Video: trace.VideoID(video), Count: count,
		})
	}

	np := d.count("placement ")
	if d.bad {
		return nil, d.errorf("placement header")
	}
	pl := &p.Placement
	pl.Off = make([]int, 1, d.capFor(np, len("p 0\n"))+1)
	// A hint, not a bound: at paper scale an id and its space take
	// four to six bytes.
	pl.IDs = make([]int32, 0, d.remaining()/4)
	for i := 0; i < np; i++ {
		d.literal("p ")
		if label, ok := d.number(); !ok || label != int64(i) {
			return nil, d.errorf("placement row %d label", i)
		}
		row := len(pl.IDs)
		for d.skip(' ') {
			v, ok := d.number()
			if !ok || v < math.MinInt32 || v > math.MaxInt32 ||
				(len(pl.IDs) > row && int32(v) <= pl.IDs[len(pl.IDs)-1]) {
				return nil, d.errorf("placement row %d video", i)
			}
			pl.IDs = append(pl.IDs, int32(v))
		}
		if !d.skip('\n') {
			return nil, d.errorf("placement row %d", i)
		}
		pl.Off = append(pl.Off, len(pl.IDs))
	}

	d.literal("overflow")
	for d.skip(' ') {
		o, ok := d.number()
		if !ok {
			return nil, d.errorf("overflow entry %d", len(p.OverflowToCDN))
		}
		p.OverflowToCDN = append(p.OverflowToCDN, o)
	}
	if !d.skip('\n') || d.remaining() != 0 {
		return nil, d.errorf("overflow row or trailing bytes")
	}
	return p, nil
}

// VerifyCanonical is the one gate received or recovered plan bytes
// pass before anything serves them: canonical must hash to the
// advertised digest and decode strictly (ParseCanonical, whose
// acceptance is the round-trip proof). Each failure wraps its own Err*
// sentinel.
func VerifyCanonical(canonical []byte, digest uint64) (*Plan, error) {
	if got := DigestOf(canonical); got != digest {
		return nil, fmt.Errorf("%w: got %016x, advertised %016x", ErrCanonicalDigest, got, digest)
	}
	return ParseCanonical(canonical)
}

// decoder is ParseCanonical's cursor over the bytes. A failed step
// sets bad, and every later step is then a no-op, so a record is
// checked once after all its fields.
type decoder struct {
	b   []byte
	pos int
	bad bool
}

// errorf reports a decode failure at the cursor.
func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s at byte %d", ErrCanonicalParse, fmt.Sprintf(format, args...), d.pos)
}

func (d *decoder) remaining() int { return len(d.b) - d.pos }

// capFor bounds a declared section length by the records the remaining
// bytes can hold at minLen bytes each, so a corrupt header cannot force
// a huge allocation.
func (d *decoder) capFor(n, minLen int) int { return min(n, d.remaining()/minLen) }

// literal consumes s or marks the decode bad.
func (d *decoder) literal(s string) {
	if d.bad || d.remaining() < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		d.bad = true
		return
	}
	d.pos += len(s)
}

// skip consumes c if it is the next byte.
func (d *decoder) skip(c byte) bool {
	if d.bad || d.pos >= len(d.b) || d.b[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// number consumes one integer spelled as strconv.AppendInt spells it:
// an optional '-', then "0" alone or a non-zero digit and more digits,
// within int64 ("-0" is not a spelling AppendInt uses).
func (d *decoder) number() (int64, bool) {
	if d.bad {
		return 0, false
	}
	i := d.pos
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	start := i
	// Nineteen digits cannot wrap a uint64; a twentieth is out of int64
	// range whatever it is.
	var u uint64
	for ; i < len(d.b); i++ {
		c := d.b[i] - '0'
		if c > 9 {
			break
		}
		if i-start == 19 {
			return 0, false
		}
		u = u*10 + uint64(c)
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if i == start || u > limit || (d.b[start] == '0' && (i-start > 1 || neg)) {
		return 0, false
	}
	d.pos = i
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// field consumes a number followed by sep, or marks the decode bad.
func (d *decoder) field(sep byte) int64 {
	v, ok := d.number()
	if !ok || !d.skip(sep) {
		d.bad = true
		return 0
	}
	return v
}

// id is field for a hotspot or video id.
func (d *decoder) id(sep byte) int32 {
	v := d.field(sep)
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.bad = true
	}
	return int32(v)
}

// count consumes a section header: header, then a length in
// [0, maxSection] and a newline.
func (d *decoder) count(header string) int {
	d.literal(header)
	n := d.field('\n')
	if n < 0 || n > maxSection {
		d.bad = true
		return 0
	}
	return int(n)
}
