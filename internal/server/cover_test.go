package server

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestQueuedFromSnapshot pins the snapshot → durable form rendering:
// entries come out (hotspot, video)-sorted whatever the map order, so
// checkpoint bytes are deterministic.
func TestQueuedFromSnapshot(t *testing.T) {
	d := core.NewDemand(3)
	d.Add(2, 7, 4)
	d.Add(2, 1, 2)
	d.Add(0, 5, 1)
	snap := &slotSnapshot{slot: 6, demand: d, requests: 7}
	got := queuedFromSnapshot(snap)
	want := wal.QueuedSlot{Slot: 6, Requests: 7, Entries: []wal.Entry{
		{Hotspot: 0, Video: 5, Count: 1},
		{Hotspot: 2, Video: 1, Count: 2},
		{Hotspot: 2, Video: 7, Count: 4},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queuedFromSnapshot = %+v, want %+v", got, want)
	}
}

// TestInstanceAddrs: "" before Start, real listen addresses after.
func TestInstanceAddrs(t *testing.T) {
	s := newTestServer(t, Config{World: testWorld(4, 100, 2), Instances: 2})
	if a, b := s.InstanceAddr(0), s.InstanceAddr(1); a != "" || b != "" {
		t.Fatalf("InstanceAddr before Start = %q, %q", a, b)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addrs := []string{s.InstanceAddr(0), s.InstanceAddr(1)}
	if addrs[0] == "" || addrs[1] == "" || addrs[0] == addrs[1] {
		t.Fatalf("InstanceAddr after Start = %q", addrs)
	}
	if addrs[0] != s.Addr() {
		t.Fatalf("Addr() = %q, want first instance %q", s.Addr(), addrs[0])
	}
}

// TestBoolAttr covers both arms of the event-attribute rendering.
func TestBoolAttr(t *testing.T) {
	if boolAttr(true) != 1 || boolAttr(false) != 0 {
		t.Fatal("boolAttr mapping wrong")
	}
}
