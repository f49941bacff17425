package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// AttrKind discriminates the value carried by an Attr.
type AttrKind int

const (
	// KindInt is an integer attribute.
	KindInt AttrKind = iota + 1
	// KindFloat is a float attribute.
	KindFloat
	// KindDur is a wall-clock duration attribute (nanoseconds). Unlike
	// the other kinds it is nondeterministic, and a Tracer constructed
	// with dropTimings=true drops it at emit.
	KindDur
)

// Attr is one key/value attribute of an Event. Exactly one of the
// value fields is meaningful, selected by Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Int   int64
	Float float64
}

// I returns an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Int: v} }

// F returns a float attribute.
func F(key string, v float64) Attr { return Attr{Key: key, Kind: KindFloat, Float: v} }

// D returns a duration attribute (timing-kind; dropped by tracers
// configured for deterministic output).
func D(key string, d time.Duration) Attr { return Attr{Key: key, Kind: KindDur, Int: int64(d)} }

// Event is one structured trace event: a type tag, the timeslot it
// belongs to (-1 when not slot-scoped), and ordered attributes. The
// Seq number is assigned by the Tracer at emit time.
type Event struct {
	Seq   int64
	Type  string
	Slot  int
	Attrs []Attr
}

// appendJSON renders the event as a single JSON object with a stable
// key order (seq, type, slot, then attributes in emit order), so equal
// event sequences serialise to byte-identical JSONL.
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, `,"type":`...)
	b = strconv.AppendQuote(b, e.Type)
	b = append(b, `,"slot":`...)
	b = strconv.AppendInt(b, int64(e.Slot), 10)
	for _, a := range e.Attrs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		switch a.Kind {
		case KindFloat:
			b = strconv.AppendFloat(b, a.Float, 'g', -1, 64)
		default: // KindInt, KindDur
			b = strconv.AppendInt(b, a.Int, 10)
		}
	}
	return append(b, '}')
}

// DefaultTracerCap is the default ring-buffer capacity of a Tracer.
const DefaultTracerCap = 4096

// Tracer records structured events into a bounded ring buffer: once
// capacity is reached the oldest events are dropped (and counted), so
// tracing a long run costs bounded memory. Emit is safe for concurrent
// use, but event ORDER is the caller's contract — for deterministic
// sequences, emit from a sequential section (the simulator flushes
// per-round events in slot order). A nil *Tracer accepts every call as
// a no-op.
type Tracer struct {
	mu          sync.Mutex
	buf         []Event
	next        int
	full        bool
	seq         int64
	dropped     int64
	dropTimings bool
}

// NewTracer returns a tracer holding at most capacity events
// (DefaultTracerCap when capacity <= 0). With dropTimings true,
// duration-kind attributes are stripped at emit so the recorded
// sequence — and its JSONL rendering — is deterministic.
func NewTracer(capacity int, dropTimings bool) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, 0, capacity), dropTimings: dropTimings}
}

// Emit records one event, assigning its sequence number.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(ev)
}

// EmitAll records events in order, stamping each with the slot.
func (t *Tracer) EmitAll(slot int, evs []Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		ev.Slot = slot
		t.emitLocked(ev)
	}
}

func (t *Tracer) emitLocked(ev Event) {
	if t.dropTimings {
		kept := ev.Attrs[:0:0]
		for _, a := range ev.Attrs {
			if a.Kind != KindDur {
				kept = append(kept, a)
			}
		}
		ev.Attrs = kept
	} else {
		ev.Attrs = append([]Attr(nil), ev.Attrs...)
	}
	ev.Seq = t.seq
	t.seq++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	// Ring: overwrite the oldest event.
	t.buf[t.next] = ev
	t.next = (t.next + 1) % cap(t.buf)
	t.full = true
	t.dropped++
}

// Events returns a copy of the retained events in emit order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped returns how many events the ring buffer has evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// WriteJSONL writes the retained events as JSON lines in emit order.
// For a tracer constructed with dropTimings=true the output is
// byte-identical across runs that emit equal event sequences.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for _, ev := range t.Events() {
		line = ev.appendJSON(line[:0])
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
