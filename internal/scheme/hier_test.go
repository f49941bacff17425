package scheme

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestMoveDemand(t *testing.T) {
	d := core.NewDemand(2)
	d.Add(0, 7, 5)
	d.Move(0, 1, 7, 3)
	if d.Count(0, 7) != 2 || d.Count(1, 7) != 3 {
		t.Errorf("after partial move: %v, %v", d.VideoCounts(0), d.VideoCounts(1))
	}
	if d.Totals[0] != 2 || d.Totals[1] != 3 {
		t.Errorf("totals after partial move: %v", d.Totals)
	}
	d.Move(0, 1, 7, 2)
	if _, ok := d.VideoCounts(0)[7]; ok {
		t.Error("fully moved video still present at source")
	}
	if d.Count(1, 7) != 5 {
		t.Errorf("target count %d, want 5", d.Count(1, 7))
	}
}

// TestHierarchicalRepeatsUnderCacheContention schedules cache-tight
// slots — cross-moved videos outnumber the cache slots left at their
// targets — twenty times over, on fresh and on reused instances, and
// requires one answer: which moves survive must be a function of the
// slot, not of map iteration order.
func TestHierarchicalRepeatsUnderCacheContention(t *testing.T) {
	for i, ctx := range slotContexts(t, cityConfig(14)) {
		ctx = cacheTight(ctx, int64(i))
		reused := NewHierarchical(3)
		want, err := reused.Schedule(ctx)
		if err != nil {
			t.Fatalf("slot %d: %v", ctx.Slot, err)
		}
		for run := 1; run < 20; run++ {
			policy := reused
			if run%2 == 0 {
				policy = NewHierarchical(3)
			}
			got, err := policy.Schedule(ctx)
			if err != nil {
				t.Fatalf("slot %d run %d: %v", ctx.Slot, run, err)
			}
			if !reflect.DeepEqual(got.Target, want.Target) || !got.Placement.Equal(&want.Placement) {
				t.Fatalf("slot %d run %d: assignment differs from the first run's", ctx.Slot, run)
			}
		}
	}
}
