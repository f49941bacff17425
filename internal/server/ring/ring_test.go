package ring

import (
	"testing"
)

// ownersOf maps every key in [0, n) to its owner.
func ownersOf(r *Ring, n int) []int {
	out := make([]int, n)
	for k := 0; k < n; k++ {
		out[k] = r.Owner(uint64(k))
	}
	return out
}

// TestRingValidation pins the constructor and membership error paths.
func TestRingValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("New(0, 8) accepted zero instances")
	}
	if _, err := New(-1, 8); err == nil {
		t.Error("New(-1, 8) accepted negative instances")
	}
	if _, err := New(2, -1); err == nil {
		t.Error("New(2, -1) accepted negative replicas")
	}
	r, err := New(2, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if r.replicas != DefaultReplicas {
		t.Errorf("replicas = %d, want default %d", r.replicas, DefaultReplicas)
	}
	if err := r.Add(1); err == nil {
		t.Error("Add(1) accepted a duplicate member")
	}
	if err := r.Add(-3); err == nil {
		t.Error("Add(-3) accepted a negative id")
	}
	if err := r.Remove(7); err == nil {
		t.Error("Remove(7) removed an absent member")
	}
	if err := r.Remove(0); err != nil {
		t.Fatalf("Remove(0): %v", err)
	}
	if err := r.Remove(1); err == nil {
		t.Error("Remove removed the last member")
	}
}

// TestRingDeterminism: two independently built rings agree on every
// ownership decision, and repeated lookups of the same key agree.
func TestRingDeterminism(t *testing.T) {
	a, err := New(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		if ao, bo := a.Owner(uint64(k)), b.Owner(uint64(k)); ao != bo {
			t.Fatalf("key %d: ring A owner %d, ring B owner %d", k, ao, bo)
		}
		if first, again := a.Owner(uint64(k)), a.Owner(uint64(k)); first != again {
			t.Fatalf("key %d: owner changed between lookups (%d, %d)", k, first, again)
		}
	}
	// A ring grown member by member matches one built whole.
	g, err := New(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < 8; id++ {
		if err := g.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 1000; k++ {
		if ao, gown := a.Owner(uint64(k)), g.Owner(uint64(k)); ao != gown {
			t.Fatalf("key %d: whole-built owner %d, grown owner %d", k, ao, gown)
		}
	}
}

// TestRingBalance bounds the key-load imbalance: across 1k keys and
// the serving tier's fleet sizes, every instance owns some keys and
// the most-loaded instance stays under 2x the mean.
func TestRingBalance(t *testing.T) {
	const keys = 1000
	for _, n := range []int{2, 4, 8} {
		r, err := New(n, DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		load := make([]int, n)
		for k := 0; k < keys; k++ {
			o := r.Owner(uint64(k))
			if o < 0 || o >= n {
				t.Fatalf("n=%d: key %d owned by out-of-range instance %d", n, k, o)
			}
			load[o]++
		}
		mean := float64(keys) / float64(n)
		for id, l := range load {
			if l == 0 {
				t.Errorf("n=%d: instance %d owns no keys", n, id)
			}
			if float64(l) > 2*mean {
				t.Errorf("n=%d: instance %d owns %d keys, above 2x the mean %.0f", n, id, l, mean)
			}
		}
	}
}

// TestRingMinimalMovementOnJoin: when an instance joins, the only keys
// that change owner are those the new instance takes — no key moves
// between two instances present both before and after.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	const keys = 1000
	for _, n := range []int{1, 2, 4, 7} {
		before, err := New(n, DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		after, err := New(n, DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		if err := after.Add(n); err != nil {
			t.Fatal(err)
		}
		ob, oa := ownersOf(before, keys), ownersOf(after, keys)
		moved := 0
		for k := 0; k < keys; k++ {
			if ob[k] == oa[k] {
				continue
			}
			moved++
			if oa[k] != n {
				t.Fatalf("n=%d: key %d moved %d -> %d, not to the joining instance %d",
					n, k, ob[k], oa[k], n)
			}
		}
		// The joiner should take roughly keys/(n+1); allow a wide
		// deterministic band but reject wholesale reshuffles.
		if max := 2 * keys / (n + 1); moved > max {
			t.Errorf("n=%d: join moved %d of %d keys, above the %d bound", n, moved, keys, max)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved no keys", n)
		}
	}
}

// TestRingMinimalMovementOnLeave: when an instance leaves, only its
// own keys are redistributed.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	const keys = 1000
	for _, n := range []int{2, 4, 8} {
		before, err := New(n, DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		leaving := n - 1
		after, err := New(n, DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		if err := after.Remove(leaving); err != nil {
			t.Fatal(err)
		}
		ob, oa := ownersOf(before, keys), ownersOf(after, keys)
		for k := 0; k < keys; k++ {
			if ob[k] != leaving && ob[k] != oa[k] {
				t.Fatalf("n=%d: key %d moved %d -> %d though instance %d left",
					n, k, ob[k], oa[k], leaving)
			}
			if oa[k] == leaving {
				t.Fatalf("n=%d: key %d still owned by departed instance %d", n, k, leaving)
			}
		}
	}
}

// TestRingAccessors covers the hotspot convenience wrapper.
func TestRingAccessors(t *testing.T) {
	r, err := New(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 32; h++ {
		if got, want := r.OwnerOfHotspot(h), r.Owner(uint64(h)); got != want {
			t.Fatalf("OwnerOfHotspot(%d) = %d, want %d", h, got, want)
		}
	}
}
