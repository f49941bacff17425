package cache

import (
	"math/rand"
	"sort"
	"testing"
)

// constructors enumerates every policy for shared behaviour tests.
var constructors = map[string]Constructor{
	"lru": func(c int) (Cache, error) { return NewLRU(c) },
	"lfu": func(c int) (Cache, error) { return NewLFU(c) },
}

func TestConstructorsRejectBadCapacity(t *testing.T) {
	for name, ctor := range constructors {
		t.Run(name, func(t *testing.T) {
			if _, err := ctor(0); err == nil {
				t.Error("capacity 0 accepted")
			}
			if _, err := ctor(-1); err == nil {
				t.Error("negative capacity accepted")
			}
		})
	}
}

func TestSharedBehaviour(t *testing.T) {
	for name, ctor := range constructors {
		t.Run(name, func(t *testing.T) {
			c, err := ctor(3)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Errorf("Name() = %q, want %q", c.Name(), name)
			}
			if c.Capacity() != 3 {
				t.Errorf("Capacity() = %d, want 3", c.Capacity())
			}
			// Misses admit.
			for i, id := range []int{1, 2, 3} {
				hit, _, evicted := c.Access(id)
				if hit {
					t.Fatalf("access %d: unexpected hit", id)
				}
				if evicted {
					t.Fatalf("access %d: eviction before full", id)
				}
				if c.Len() != i+1 {
					t.Fatalf("Len() = %d after %d inserts", c.Len(), i+1)
				}
			}
			// Hits report hits and never evict.
			hit, _, evicted := c.Access(2)
			if !hit || evicted {
				t.Fatalf("re-access: hit=%v evicted=%v", hit, evicted)
			}
			// Overflow evicts exactly one.
			hit, victim, evicted := c.Access(4)
			if hit || !evicted {
				t.Fatalf("overflow access: hit=%v evicted=%v", hit, evicted)
			}
			if c.Len() != 3 {
				t.Fatalf("Len() = %d after eviction, want 3", c.Len())
			}
			if c.Contains(victim) {
				t.Fatalf("victim %d still cached", victim)
			}
			if !c.Contains(4) {
				t.Fatal("admitted id missing")
			}
			items := c.Items()
			sort.Ints(items)
			if len(items) != 3 {
				t.Fatalf("Items() = %v", items)
			}
		})
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 becomes most recent
	_, victim, evicted := c.Access(3)
	if !evicted || victim != 2 {
		t.Errorf("evicted %d (%v), want 2", victim, evicted)
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Errorf("contents = %v, want {1, 3}", c.Items())
	}
}

func TestLFUEvictionOrder(t *testing.T) {
	c, err := NewLFU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1)
	c.Access(1) // freq 2
	c.Access(2) // freq 1
	_, victim, evicted := c.Access(3)
	if !evicted || victim != 2 {
		t.Errorf("evicted %d (%v), want least-frequent 2", victim, evicted)
	}
	// Now 1 has freq 2, 3 has freq 1: adding 4 evicts 3.
	_, victim, evicted = c.Access(4)
	if !evicted || victim != 3 {
		t.Errorf("evicted %d (%v), want 3", victim, evicted)
	}
	if !c.Contains(1) {
		t.Error("frequent id 1 evicted")
	}
}

func TestLFUTieBreaksLeastRecent(t *testing.T) {
	c, err := NewLFU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1)
	c.Access(2) // both freq 1; 1 older
	_, victim, evicted := c.Access(3)
	if !evicted || victim != 1 {
		t.Errorf("evicted %d (%v), want oldest tie 1", victim, evicted)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, ctor := range constructors {
		t.Run(name, func(t *testing.T) {
			c, err := ctor(8)
			if err != nil {
				t.Fatal(err)
			}
			present := make(map[int]bool)
			for i := 0; i < 5000; i++ {
				id := rng.Intn(40)
				hit, victim, evicted := c.Access(id)
				if hit != present[id] {
					t.Fatalf("step %d: hit=%v but present=%v for %d", i, hit, present[id], id)
				}
				if evicted {
					if !present[victim] {
						t.Fatalf("step %d: evicted absent id %d", i, victim)
					}
					delete(present, victim)
				}
				present[id] = true
				if c.Len() > 8 {
					t.Fatalf("step %d: Len() = %d exceeds capacity", i, c.Len())
				}
				if len(present) != c.Len() {
					t.Fatalf("step %d: model has %d, cache has %d", i, len(present), c.Len())
				}
			}
		})
	}
}

func TestLRUMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, err := NewLRU(5)
	if err != nil {
		t.Fatal(err)
	}
	var order []int // reference: most recent first
	touch := func(id int) {
		for i, v := range order {
			if v == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]int{id}, order...)
		if len(order) > 5 {
			order = order[:5]
		}
	}
	for i := 0; i < 2000; i++ {
		id := rng.Intn(15)
		c.Access(id)
		touch(id)
		got := c.Items()
		if len(got) != len(order) {
			t.Fatalf("step %d: size mismatch", i)
		}
		for j := range order {
			if got[j] != order[j] {
				t.Fatalf("step %d: order %v, want %v", i, got, order)
			}
		}
	}
}
