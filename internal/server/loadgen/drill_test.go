package loadgen_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
	"repro/internal/wal"
)

// drillWorldAndTrace is a deployment small enough for a table of
// fsync-per-request kill/restart runs, big enough that every slot
// schedules redirects and placement.
func drillWorldAndTrace(t *testing.T) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 5
	cfg.NumHotspots = 12
	cfg.NumVideos = 300
	cfg.NumUsers = 300
	cfg.NumRequests = 600
	cfg.Slots = 4
	cfg.NumRegions = 2
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// drillBoot returns a boot function for a two-frontend WAL-backed tier
// whose n-th boot (from 0) opens dirs[min(n, len(dirs)-1)].
func drillBoot(world *trace.World, slots int, dirs ...string) func() (*server.Server, error) {
	boots := 0
	return func() (*server.Server, error) {
		dir := dirs[min(boots, len(dirs)-1)]
		boots++
		return server.New(server.Config{
			World:           world,
			Instances:       2,
			Registry:        obs.NewRegistry(),
			PlanHistory:     slots + 1,
			QueueBound:      1 << 20,
			WALDir:          dir,
			Fsync:           "always",
			CheckpointEvery: 2,
		})
	}
}

// TestCrashDrill holds the one kill/restart driver to the offline
// reference wherever the kills land: every case must finish the trace
// with each slot's plan byte-identical to OfflinePlans.
func TestCrashDrill(t *testing.T) {
	world, tr := drillWorldAndTrace(t)
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	if len(offline) != tr.Slots {
		t.Fatalf("offline scheduled %d of %d slots", len(offline), tr.Slots)
	}
	bySlot := tr.BySlot()
	half := func(slot int) int { return len(bySlot[slot]) / 2 }
	slotMax := 0
	for _, reqs := range bySlot {
		slotMax = max(slotMax, len(reqs))
	}
	replayBound := wal.ReplayBound(2, slotMax) // drillBoot checkpoints every 2 slots

	cases := []struct {
		name    string
		crashes []loadgen.CrashPoint
	}{
		{"no crash", nil},
		{"mid-slot", []loadgen.CrashPoint{{Slot: 2, After: half(2)}}},
		{"right after a boundary", []loadgen.CrashPoint{{Slot: 3, After: 0}}},
		{"three crashes, two of them in one slot", []loadgen.CrashPoint{
			{Slot: 1, After: 3}, {Slot: 1, After: half(1)}, {Slot: 3, After: len(bySlot[3])},
		}},
		{"first slot", []loadgen.CrashPoint{{Slot: 0, After: half(0)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drill, err := loadgen.CrashDrill(drillBoot(world, tr.Slots, t.TempDir()), tr, tc.crashes)
			if err != nil {
				t.Fatalf("CrashDrill: %v", err)
			}
			if len(drill.Recovered) != len(tc.crashes) {
				t.Fatalf("%d recoveries for %d crash points", len(drill.Recovered), len(tc.crashes))
			}
			for i, st := range drill.Recovered {
				if st.Records > replayBound {
					t.Errorf("restart %d replayed %d records, bound %d", i, st.Records, replayBound)
				}
			}
			if len(drill.Plans) != len(offline) {
				t.Fatalf("online scheduled %d slots, offline %d", len(drill.Plans), len(offline))
			}
			for slot, want := range offline {
				if drill.Plans[slot] != want {
					t.Errorf("slot %d: plan after %d kills differs from offline", slot, len(tc.crashes))
				}
			}
		})
	}
}

// TestCrashDrillRefusals: a reboot that does not come back at the
// interrupted slot (here: it opens a different, empty WAL directory)
// and crash points the trace cannot honour fail loudly.
func TestCrashDrillRefusals(t *testing.T) {
	world, tr := drillWorldAndTrace(t)
	cases := []struct {
		name    string
		dirs    []string
		crashes []loadgen.CrashPoint
		want    string
	}{
		{"reboot on another WAL directory", []string{t.TempDir(), t.TempDir()},
			[]loadgen.CrashPoint{{Slot: 1, After: 5}}, "restart recovered slot 0, want 1"},
		{"after beyond the slot", []string{t.TempDir()},
			[]loadgen.CrashPoint{{Slot: 0, After: 1 << 20}}, "outside the slot's remaining requests"},
		{"out of order", []string{t.TempDir()},
			[]loadgen.CrashPoint{{Slot: 2, After: 0}, {Slot: 1, After: 0}}, "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadgen.CrashDrill(drillBoot(world, tr.Slots, tc.dirs...), tr, tc.crashes)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CrashDrill error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
