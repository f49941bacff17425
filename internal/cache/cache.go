// Package cache provides fixed-capacity cache replacement policies
// (LRU, LFU) for the reactive-caching baseline: the paper's
// crowdsourced CDN *prefetches* content per scheduling round, and the
// extension benches compare that against hotspots that instead cache
// reactively on miss, the behaviour of an unmanaged edge cache.
package cache

import (
	"container/list"
	"fmt"
)

// Cache is a fixed-capacity set of integer ids with an eviction policy.
// Implementations are not safe for concurrent use.
type Cache interface {
	// Name identifies the policy ("lru", "lfu").
	Name() string
	// Contains reports whether id is cached, without touching
	// recency/frequency state.
	Contains(id int) bool
	// Access records a request for id. On a hit it updates the
	// policy's bookkeeping and returns hit=true. On a miss it admits
	// id, evicting a victim when full; evicted reports the victim and
	// wasEvicted whether there was one.
	Access(id int) (hit bool, evicted int, wasEvicted bool)
	// Len returns the current number of cached ids.
	Len() int
	// Capacity returns the maximum number of cached ids.
	Capacity() int
	// Items returns the cached ids in unspecified order.
	Items() []int
}

// Constructor builds a cache of the given capacity.
type Constructor func(capacity int) (Cache, error)

// --- LRU ---

// LRU evicts the least recently used id.
type LRU struct {
	capacity int
	order    *list.List // front = most recent
	byID     map[int]*list.Element
}

var _ Cache = (*LRU)(nil)

// NewLRU returns an LRU cache; capacity must be positive.
func NewLRU(capacity int) (*LRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		byID:     make(map[int]*list.Element, capacity),
	}, nil
}

// Name implements Cache.
func (c *LRU) Name() string { return "lru" }

// Contains implements Cache.
func (c *LRU) Contains(id int) bool {
	_, ok := c.byID[id]
	return ok
}

// Access implements Cache.
func (c *LRU) Access(id int) (hit bool, evicted int, wasEvicted bool) {
	if el, ok := c.byID[id]; ok {
		c.order.MoveToFront(el)
		return true, 0, false
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		victim := back.Value.(int)
		c.order.Remove(back)
		delete(c.byID, victim)
		evicted, wasEvicted = victim, true
	}
	c.byID[id] = c.order.PushFront(id)
	return false, evicted, wasEvicted
}

// Len implements Cache.
func (c *LRU) Len() int { return c.order.Len() }

// Capacity implements Cache.
func (c *LRU) Capacity() int { return c.capacity }

// Items implements Cache.
func (c *LRU) Items() []int {
	out := make([]int, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(int))
	}
	return out
}

// --- LFU ---

// LFU evicts the least frequently used id, breaking frequency ties by
// least recent insertion into the current frequency class (the classic
// O(1) LFU of Shah, Mitra, and Matani).
type LFU struct {
	capacity int
	byID     map[int]*lfuEntry
	freqs    *list.List // ascending frequency classes
}

type lfuClass struct {
	freq    int64
	entries *list.List // *lfuEntry, front = most recent
}

type lfuEntry struct {
	id    int
	class *list.Element // into LFU.freqs
	self  *list.Element // into class.entries
}

var _ Cache = (*LFU)(nil)

// NewLFU returns an LFU cache; capacity must be positive.
func NewLFU(capacity int) (*LFU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	return &LFU{
		capacity: capacity,
		byID:     make(map[int]*lfuEntry, capacity),
		freqs:    list.New(),
	}, nil
}

// Name implements Cache.
func (c *LFU) Name() string { return "lfu" }

// Contains implements Cache.
func (c *LFU) Contains(id int) bool {
	_, ok := c.byID[id]
	return ok
}

// Access implements Cache.
func (c *LFU) Access(id int) (hit bool, evicted int, wasEvicted bool) {
	if e, ok := c.byID[id]; ok {
		c.promote(e)
		return true, 0, false
	}
	if len(c.byID) >= c.capacity {
		victim := c.evictOne()
		evicted, wasEvicted = victim, true
	}
	// Insert at frequency 1.
	classEl := c.freqs.Front()
	if classEl == nil || classEl.Value.(*lfuClass).freq != 1 {
		classEl = c.freqs.PushFront(&lfuClass{freq: 1, entries: list.New()})
	}
	entry := &lfuEntry{id: id, class: classEl}
	entry.self = classEl.Value.(*lfuClass).entries.PushFront(entry)
	c.byID[id] = entry
	return false, evicted, wasEvicted
}

// promote moves an entry to the next frequency class.
func (c *LFU) promote(e *lfuEntry) {
	cls := e.class.Value.(*lfuClass)
	next := e.class.Next()
	var target *list.Element
	if next != nil && next.Value.(*lfuClass).freq == cls.freq+1 {
		target = next
	} else {
		target = c.freqs.InsertAfter(&lfuClass{freq: cls.freq + 1, entries: list.New()}, e.class)
	}
	cls.entries.Remove(e.self)
	if cls.entries.Len() == 0 {
		c.freqs.Remove(e.class)
	}
	e.class = target
	e.self = target.Value.(*lfuClass).entries.PushFront(e)
}

// evictOne removes the least-frequent, least-recent entry.
func (c *LFU) evictOne() int {
	classEl := c.freqs.Front()
	cls := classEl.Value.(*lfuClass)
	victimEl := cls.entries.Back()
	victim := victimEl.Value.(*lfuEntry)
	cls.entries.Remove(victimEl)
	if cls.entries.Len() == 0 {
		c.freqs.Remove(classEl)
	}
	delete(c.byID, victim.id)
	return victim.id
}

// Len implements Cache.
func (c *LFU) Len() int { return len(c.byID) }

// Capacity implements Cache.
func (c *LFU) Capacity() int { return c.capacity }

// Items implements Cache.
func (c *LFU) Items() []int {
	out := make([]int, 0, len(c.byID))
	for id := range c.byID {
		out = append(out, id)
	}
	return out
}
