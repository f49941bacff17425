package ring

import (
	"testing"
)

// TestRingValidation pins the constructor's error paths and its
// default replica count.
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
	if len(r.vnodes) != 2*DefaultReplicas || len(r.owners) != len(r.vnodes) {
		t.Errorf("%d vnodes, %d owners; want %d of each (the default replicas per instance)",
			len(r.vnodes), len(r.owners), 2*DefaultReplicas)
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
