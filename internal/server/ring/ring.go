// Package ring is the consistent-hash ring that shards hotspot
// ingestion across the serving tier's frontend instances. Each
// instance owns a fixed number of virtual nodes placed on a 64-bit
// hash circle; a hotspot is owned by the instance whose virtual node
// is the first at or clockwise of the hotspot's hash. The placement
// is a pure function of (instance id, replica index), so every
// process — and every run — computes the identical ownership map for
// a frontend count. The tier's frontend set is fixed at boot: New
// builds the ring once, and a reboot with another count simply builds
// another ring (recovery does not depend on which frontend owned what).
package ring

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DefaultReplicas is the virtual-node count per instance. 128 vnodes
// keep the max/mean key-load ratio under ~1.5 for the fleet sizes the
// serving tier runs (see TestRingBalance).
const DefaultReplicas = 128

// Ring maps 64-bit keys to instance indices.
type Ring struct {
	// vnodes is sorted by hash; owners[i] is the instance owning
	// vnodes[i].
	vnodes []uint64
	owners []int32
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

// New builds the ring over instances 0..n-1 with the given
// virtual-node count per instance (0 selects DefaultReplicas).
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
	type vnode struct {
		h  uint64
		id int32
	}
	all := make([]vnode, 0, n*replicas)
	for id := 0; id < n; id++ {
		for k := 0; k < replicas; k++ {
			all = append(all, vnode{vnodeHash(id, k), int32(id)})
		}
	}
	// Ties (astronomically unlikely with 64-bit hashes) break by
	// instance id so the ownership map stays a pure function of n.
	slices.SortFunc(all, func(a, b vnode) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.id, b.id))
	})
	r := &Ring{vnodes: make([]uint64, len(all)), owners: make([]int32, len(all))}
	for i, v := range all {
		r.vnodes[i], r.owners[i] = v.h, v.id
	}
	return r, nil
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
