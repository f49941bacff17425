package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Type: "x"})
	tr.EmitAll(3, []Event{{Type: "y"}})
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer not inert")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerEmitAndSeq(t *testing.T) {
	tr := NewTracer(8, false)
	tr.Emit(Event{Type: "a", Slot: -1})
	tr.EmitAll(5, []Event{{Type: "b"}, {Type: "c", Attrs: []Attr{I("n", 7)}}})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, ev.Seq)
		}
	}
	if evs[0].Slot != -1 || evs[1].Slot != 5 || evs[2].Slot != 5 {
		t.Fatalf("slots: %d %d %d", evs[0].Slot, evs[1].Slot, evs[2].Slot)
	}
	if len(evs[2].Attrs) != 1 || evs[2].Attrs[0].Int != 7 {
		t.Fatalf("attrs: %+v", evs[2].Attrs)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4, false)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: "e", Attrs: []Attr{I("i", int64(i))}})
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Attrs[0].Int != want || ev.Seq != want {
			t.Fatalf("ev[%d] = %+v, want i=seq=%d", i, ev, want)
		}
	}
}

func TestTracerDropTimings(t *testing.T) {
	tr := NewTracer(8, true)
	tr.Emit(Event{Type: "round", Attrs: []Attr{
		I("moved", 10),
		D("dur", 123*time.Millisecond),
		F("theta", 0.5),
	}})
	evs := tr.Events()
	if len(evs) != 1 || len(evs[0].Attrs) != 2 {
		t.Fatalf("attrs after dropTimings: %+v", evs)
	}
	for _, a := range evs[0].Attrs {
		if a.Kind == KindDur {
			t.Fatalf("duration attr survived: %+v", a)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8, false)
	tr.Emit(Event{Type: "theta-iter", Slot: 2, Attrs: []Attr{
		F("theta", 0.25),
		I("moved", 12),
		D("dur", 5*time.Microsecond),
	}})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"type":"theta-iter","slot":2,"theta":0.25,"moved":12,"dur":5000}` + "\n"
	if buf.String() != want {
		t.Fatalf("jsonl:\n%q\nwant:\n%q", buf.String(), want)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("line count: %q", buf.String())
	}
}

func TestTracerDefaultCap(t *testing.T) {
	tr := NewTracer(0, false)
	if cap(tr.buf) != DefaultTracerCap {
		t.Fatalf("cap = %d", cap(tr.buf))
	}
}

// Mutating the caller's attr slice after Emit must not change the
// recorded event.
func TestTracerCopiesAttrs(t *testing.T) {
	tr := NewTracer(4, false)
	attrs := []Attr{I("n", 1)}
	tr.Emit(Event{Type: "a", Attrs: attrs})
	attrs[0].Int = 99
	if got := tr.Events()[0].Attrs[0].Int; got != 1 {
		t.Fatalf("recorded attr mutated: %d", got)
	}
}
