package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// processStart is the zero of every span time and the start of the
// first set-up.
var processStart = time.Now()

// sinceStart is the span clock: nanoseconds since the process started.
func sinceStart() int64 { return int64(time.Since(processStart)) }

// span is one interval recorded by the harness around a call into a
// layer. The spans are the benchmark's own: they are taken from outside
// the program, kept in memory, and written as JSON lines when the run
// ends. A span's self time is its duration minus its children's.
type span struct {
	id     int32
	parent int32 // 0 for the root
	name   string
	slot   int32 // server slot the span belongs to, -1 outside the serving phase
	start  int64
	end    int64
}

// leaf is a span without children (one request round trip), recorded
// lock-free by the goroutine that owns the connection and given its id
// when it is merged.
type leaf struct {
	name       string
	start, end int64
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// run pays one nil check per call.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32, slot int) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, slot: int32(slot), start: sinceStart()})
	return id
}

func (t *tracer) end(id int32) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = sinceStart()
	return time.Duration(s.end - s.start)
}

// addLeaves merges one connection's request spans under parent.
func (t *tracer) addLeaves(parent int32, slot int, leaves []leaf) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range leaves {
		id := int32(len(t.spans) + 1)
		t.spans = append(t.spans, span{id: id, parent: parent, name: l.name, slot: int32(slot), start: l.start, end: l.end})
	}
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"workload":%q,"slot":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, t.workload, s.slot, s.start, s.end)
	}
	return w.Flush()
}
