package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// checkNoLeak fails the test unless the goroutine count is back at base
// within a second: every goroutine a run started has exited.
func checkNoLeak(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before it", runtime.NumGoroutine(), base)
		}
	}
}

// panicPolicy is cdnOnly that panics with value in the round of slot at.
type panicPolicy struct {
	cdnOnly
	at    int
	value any
}

func (p panicPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	if ctx.Slot == p.at {
		panic(p.value)
	}
	return p.cdnOnly.Schedule(ctx)
}

// TestPolicyPanicSurfacesOnCaller: a panic inside a policy's round, on
// whichever goroutine the round ran, is re-raised on the caller's
// goroutine with its value once the slots before it have been sunk, and
// no goroutine outlives the run.
func TestPolicyPanicSurfacesOnCaller(t *testing.T) {
	world, tr := sinkWorldTrace(t, 8)
	const at = 4
	sentinel := errors.New("policy bug")
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			policies := make([]Scheduler, workers)
			for k := range policies {
				policies[k] = panicPolicy{at: at, value: sentinel}
			}
			var sunk []int
			opts := Options{Seed: 1, SlotSink: func(sm SlotMetrics) error {
				sunk = append(sunk, sm.Slot)
				return nil
			}}
			base := runtime.NumGoroutine()
			recovered := func() (r any) {
				defer func() { r = recover() }()
				_, _ = run(world, tr, policies, opts)
				return nil
			}()
			checkNoLeak(t, base)
			if recovered != sentinel {
				t.Fatalf("caller recovered %v, want the policy's panic value", recovered)
			}
			if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(sunk, want) {
				t.Errorf("sink saw slots %v before the panic, want %v", sunk, want)
			}
		})
	}
}

// TestContextErrorStopsRun: a slot whose context cannot be built (a
// video outside the world) fails the run at that slot after the slots
// before it were applied, schedules nothing from it on, and leaks no
// goroutine.
func TestContextErrorStopsRun(t *testing.T) {
	world, tr := sinkWorldTrace(t, 6)
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bySlot := tr.BySlot()
			bySlot[bad] = append([]trace.Request(nil), bySlot[bad]...)
			bySlot[bad][0].Video = trace.VideoID(world.NumVideos)
			var mu sync.Mutex
			scheduled := make(map[int]bool)
			policies := make([]Scheduler, workers)
			for k := range policies {
				policies[k] = recordingPolicy{mu: &mu, scheduled: scheduled, failAt: -1}
			}
			var sunk []int
			opts := Options{Seed: 1, SlotSink: func(sm SlotMetrics) error {
				sunk = append(sunk, sm.Slot)
				return nil
			}}
			metrics := &Metrics{
				PerHotspotLoad:   make([]int64, len(world.Hotspots)),
				PerHotspotServed: make([]int64, len(world.Hotspots)),
			}
			base := runtime.NumGoroutine()
			_, err := pipeline(world, index, nil, bySlot, policies, opts, metrics)
			checkNoLeak(t, base)
			if err == nil || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("pipeline error = %v, want the out-of-range video", err)
			}
			if want := []int{0, 1}; !reflect.DeepEqual(sunk, want) {
				t.Errorf("sink saw slots %v, want %v", sunk, want)
			}
			for slot := range bySlot {
				if scheduled[slot] != (slot < bad) {
					t.Errorf("slot %d scheduled = %v", slot, scheduled[slot])
				}
			}
		})
	}
}

// overlapPolicy is cdnOnly whose round of slot s marks started[s] and
// then waits until the sink has seen slot s−1.
type overlapPolicy struct {
	cdnOnly
	started, sunk []chan struct{}
}

func (p overlapPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	close(p.started[ctx.Slot])
	if ctx.Slot > 0 {
		if err := within(p.sunk[ctx.Slot-1]); err != nil {
			return nil, fmt.Errorf("sink of slot %d: %w", ctx.Slot-1, err)
		}
	}
	return p.cdnOnly.Schedule(ctx)
}

// within waits for ch to close, for at most five seconds.
func within(ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("timed out")
	}
}

// TestApplyOverlapsNextRound: slot s's evaluation runs while slot s+1's
// round is in progress. The sink of slot s returns only once round s+1
// has started, and round s+1 returns only once the sink has seen slot
// s, so a loop that applies a slot before it starts the next round
// times out here.
func TestApplyOverlapsNextRound(t *testing.T) {
	world, tr := sinkWorldTrace(t, 6)
	for slot, reqs := range tr.BySlot() {
		if len(reqs) == 0 {
			t.Fatalf("slot %d is empty", slot)
		}
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			started, sunk := make([]chan struct{}, tr.Slots), make([]chan struct{}, tr.Slots)
			for s := range started {
				started[s], sunk[s] = make(chan struct{}), make(chan struct{})
			}
			policies := make([]Scheduler, workers)
			for k := range policies {
				policies[k] = overlapPolicy{started: started, sunk: sunk}
			}
			_, err := run(world, tr, policies, Options{Seed: 1, SlotSink: func(sm SlotMetrics) error {
				if next := sm.Slot + 1; next < tr.Slots {
					if err := within(started[next]); err != nil {
						return fmt.Errorf("round of slot %d: %w", next, err)
					}
				}
				close(sunk[sm.Slot])
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
