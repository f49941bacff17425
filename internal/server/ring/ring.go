// Package ring is the consistent-hash ring that shards hotspot
// ingestion across the serving tier's frontend instances. Each
// instance owns a fixed number of virtual nodes placed on a 64-bit
// hash circle; a hotspot is owned by the instance whose virtual node
// is the first at or clockwise of the hotspot's hash. The placement
// is a pure function of (instance id, replica index), so every
// process — and every run — computes the identical ownership map, and
// adding or removing an instance moves only the keys that land on the
// joining (or leaving) instance's virtual nodes: no key ever moves
// between two instances that are present both before and after the
// change (certified in ring_test.go).
package ring

import (
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per instance. 128 vnodes
// keep the max/mean key-load ratio under ~1.5 for the fleet sizes the
// serving tier runs (see TestRingBalance).
const DefaultReplicas = 128

// Ring maps 64-bit keys to instance indices.
type Ring struct {
	replicas int
	// vnodes is sorted by hash; owners[i] is the instance owning
	// vnodes[i].
	vnodes []uint64
	owners []int32
	// members are the current instance ids, sorted.
	members []int
}

// mix is the splitmix64 finaliser: a cheap, well-avalanched 64-bit
// mixer, deterministic everywhere by construction.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodeHash places virtual node r of instance id on the circle. The
// two stream constants keep instance bits and replica bits from
// cancelling for adjacent ids.
func vnodeHash(id, r int) uint64 {
	return mix(uint64(id)*0x9e3779b97f4a7c15 + uint64(r)*0xd1b54a32d192ed03 + 1)
}

// KeyHash places a key (e.g. a hotspot id) on the circle.
func KeyHash(key uint64) uint64 { return mix(key + 0xa0761d6478bd642f) }

// New builds a ring over instances 0..n-1 with the given virtual-node
// count per instance (0 selects DefaultReplicas).
func New(n, replicas int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ring: non-positive instance count %d", n)
	}
	if replicas < 0 {
		return nil, fmt.Errorf("ring: negative replicas %d", replicas)
	}
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas}
	for id := 0; id < n; id++ {
		r.members = append(r.members, id)
	}
	r.rebuild()
	return r, nil
}

// rebuild recomputes the sorted vnode table from the member set.
func (r *Ring) rebuild() {
	n := len(r.members) * r.replicas
	r.vnodes = make([]uint64, 0, n)
	r.owners = make([]int32, 0, n)
	type vn struct {
		h  uint64
		id int32
	}
	all := make([]vn, 0, n)
	for _, id := range r.members {
		for k := 0; k < r.replicas; k++ {
			all = append(all, vn{vnodeHash(id, k), int32(id)})
		}
	}
	// Ties (astronomically unlikely with 64-bit hashes) break by
	// instance id so the ownership map stays a pure function of the
	// member set.
	sort.Slice(all, func(i, j int) bool {
		if all[i].h != all[j].h {
			return all[i].h < all[j].h
		}
		return all[i].id < all[j].id
	})
	for _, v := range all {
		r.vnodes = append(r.vnodes, v.h)
		r.owners = append(r.owners, v.id)
	}
}

// Owner returns the instance owning key.
func (r *Ring) Owner(key uint64) int {
	h := KeyHash(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i] >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap past the highest vnode to the lowest
	}
	return int(r.owners[i])
}

// OwnerOfHotspot returns the instance owning hotspot h's ingestion.
func (r *Ring) OwnerOfHotspot(h int) int { return r.Owner(uint64(h)) }

// Add joins instance id to the ring. Adding a present member is an
// error.
func (r *Ring) Add(id int) error {
	if id < 0 {
		return fmt.Errorf("ring: negative instance id %d", id)
	}
	i := sort.SearchInts(r.members, id)
	if i < len(r.members) && r.members[i] == id {
		return fmt.Errorf("ring: instance %d already a member", id)
	}
	r.members = append(r.members, 0)
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = id
	r.rebuild()
	return nil
}

// Remove leaves instance id from the ring. Removing the last member
// or an absent one is an error.
func (r *Ring) Remove(id int) error {
	i := sort.SearchInts(r.members, id)
	if i == len(r.members) || r.members[i] != id {
		return fmt.Errorf("ring: instance %d not a member", id)
	}
	if len(r.members) == 1 {
		return fmt.Errorf("ring: cannot remove the last instance")
	}
	r.members = append(r.members[:i], r.members[i+1:]...)
	r.rebuild()
	return nil
}
