package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// sinkWorldTrace generates a small world/trace pair with the given slot
// count for the sink tests.
func sinkWorldTrace(t *testing.T, slots int) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 20
	cfg.NumVideos = 300
	cfg.NumUsers = 200
	cfg.NumRequests = 1500
	cfg.NumRegions = 4
	cfg.Slots = slots
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// cdnOnly sends every request to the CDN — the simplest slot-independent
// policy, adequate for exercising the sink plumbing.
type cdnOnly struct{}

func (cdnOnly) Name() string { return "cdn-only" }

func (cdnOnly) Schedule(ctx *SlotContext) (*Assignment, error) {
	target := make([]int, len(ctx.Requests))
	for i := range target {
		target[i] = CDN
	}
	placement := make([]similarity.Set, len(ctx.World.Hotspots))
	for h := range placement {
		placement[h] = similarity.NewSet()
	}
	return &Assignment{Placement: placementOf(placement), Target: target}, nil
}

// withTimeline returns opts with a SlotSink that appends every applied
// slot's metrics to *tl.
func withTimeline(opts Options, tl *[]SlotMetrics) Options {
	opts.SlotSink = func(sm SlotMetrics) error {
		*tl = append(*tl, sm)
		return nil
	}
	return opts
}

// TestSlotSinkReceivesSlotsInOrder: the sink sees every applied slot's
// metrics in slot order, regardless of worker count.
func TestSlotSinkReceivesSlotsInOrder(t *testing.T) {
	world, tr := sinkWorldTrace(t, 4)
	var sunk []SlotMetrics
	opts := Options{
		Seed: 1,
		SlotSink: func(sm SlotMetrics) error {
			sunk = append(sunk, sm)
			return nil
		},
	}
	if _, err := Run(world, tr, cdnOnly{}, opts); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != tr.Slots {
		t.Fatalf("sink saw %d slots, want %d", len(sunk), tr.Slots)
	}
	for i, sm := range sunk {
		if sm.Slot != i {
			t.Fatalf("sink slot %d arrived at position %d", sm.Slot, i)
		}
	}
	// The parallel path must deliver the identical stream.
	var sunkPar []SlotMetrics
	optsPar := opts
	optsPar.SlotSink = func(sm SlotMetrics) error {
		sunkPar = append(sunkPar, sm)
		return nil
	}
	if _, err := RunParallel(world, tr, func() Scheduler { return cdnOnly{} }, 4, optsPar); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sunk, sunkPar) {
		t.Fatal("sink stream differs between Run and RunParallel")
	}
}

// TestSlotSinkAbortsRun: a sink error stops the run and surfaces with
// slot context, preserving the error chain for errors.Is.
func TestSlotSinkAbortsRun(t *testing.T) {
	world, tr := sinkWorldTrace(t, 4)
	sentinel := errors.New("enough")
	calls := 0
	opts := Options{
		Seed: 1,
		SlotSink: func(sm SlotMetrics) error {
			calls++
			if sm.Slot == 1 {
				return fmt.Errorf("stop: %w", sentinel)
			}
			return nil
		},
	}
	_, err := Run(world, tr, cdnOnly{}, opts)
	if err == nil {
		t.Fatal("sink error did not abort the run")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error chain lost the sentinel: %v", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2 (slots 0 and 1)", calls)
	}
}

// recordingPolicy is cdnOnly that notes which slots it was asked to
// schedule and fails the round of slot failAt.
type recordingPolicy struct {
	cdnOnly
	mu        *sync.Mutex
	scheduled map[int]bool
	failAt    int
	err       error
}

func (p recordingPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	p.mu.Lock()
	p.scheduled[ctx.Slot] = true
	p.mu.Unlock()
	if ctx.Slot == p.failAt {
		return nil, p.err
	}
	return p.cdnOnly.Schedule(ctx)
}

// TestSlotSinkAbortStopsScheduling pins the pipeline's exact stopping
// bound. An abort at slot a — a fail-fast sink error or a failing round
// — lets exactly the slots ≤ a+W be scheduled (their rounds were
// released before the abort) and nothing after them; the sink sees the
// slots before a, and a itself when the sink aborted; and no goroutine
// outlives the run.
func TestSlotSinkAbortStopsScheduling(t *testing.T) {
	world, tr := sinkWorldTrace(t, 9)
	sentinel := errors.New("enough")
	for _, tc := range []struct {
		name string
		// the sink aborts at sinkAbort; the policy fails at roundFail.
		sinkAbort, roundFail int
		wantSunk             []int
	}{
		{"sink abort", 1, -1, []int{0, 1}},
		{"failing round", -1, 4, []int{0, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					var mu sync.Mutex
					scheduled := make(map[int]bool)
					policies := make([]Scheduler, workers)
					for k := range policies {
						policies[k] = recordingPolicy{mu: &mu, scheduled: scheduled, failAt: tc.roundFail, err: sentinel}
					}
					var sunk []int
					base := runtime.NumGoroutine()
					_, err := run(world, tr, policies, Options{Seed: 1, SlotSink: func(sm SlotMetrics) error {
						sunk = append(sunk, sm.Slot)
						if sm.Slot == tc.sinkAbort {
							return sentinel
						}
						return nil
					}})
					checkNoLeak(t, base)
					if !errors.Is(err, sentinel) {
						t.Fatalf("run error = %v, want the sentinel", err)
					}
					if !reflect.DeepEqual(sunk, tc.wantSunk) {
						t.Errorf("sink saw slots %v, want %v", sunk, tc.wantSunk)
					}
					last := max(tc.sinkAbort, tc.roundFail) + workers
					for slot := 0; slot < tr.Slots; slot++ {
						if scheduled[slot] != (slot <= last) {
							t.Errorf("slot %d scheduled = %v; the run should schedule exactly the slots <= %d", slot, scheduled[slot], last)
						}
					}
				})
			}
		})
	}
}
