package wal_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The serving tier's crash tests live with the server; these rebuild
// the logs they write — kill/restart drills, the 3 → 1 → 2 frontend
// reboots, quiet slots, a coalesced slot, an in-flight round, a fleet
// shrink — and hold every boot on them to the read-everything
// reference (referenceRecover), which only this package's tests reach.

// tierWorld is a deployment small enough for fsync-per-request
// kill/restart runs, big enough that every slot schedules.
func tierWorld(t *testing.T) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 11
	cfg.NumHotspots = 16
	cfg.NumVideos = 400
	cfg.NumUsers = 600
	cfg.NumRequests = 2000
	cfg.Slots = 5
	cfg.NumRegions = 3
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// bootLog counts the checked boots of one test and whether any of them
// started at a checkpoint's position and so read less than the whole
// log.
type bootLog struct {
	boots, shorter int
}

// checked boots cfg after copying its WAL directory, and requires the
// State the boot recovered to be the reference's on the copy.
func (bl *bootLog) checked(t *testing.T, cfg server.Config) (*server.Server, error) {
	t.Helper()
	twin := t.TempDir()
	des, err := os.ReadDir(cfg.WALDir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(cfg.WALDir, de.Name()))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(twin, de.Name()), data, 0o644); err != nil {
			return nil, err
		}
	}
	cfg.Registry = obs.NewRegistry()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	bl.boots++
	if wal.RequireRecoveryMatchesReference(t, srv.WALState(), twin) > 0 {
		bl.shorter++
	}
	return srv, nil
}

// ingest posts n acknowledged ingests straight into frontend i mod N's
// handler, numbering users from first.
func ingest(t *testing.T, srv *server.Server, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%7, i%4)
		rr := httptest.NewRecorder()
		srv.InstanceHandler(i%srv.NumInstances()).ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		if rr.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d %s", i, rr.Code, rr.Body)
		}
	}
}

// TestTierCrashDrillsMatchReference: the kill/restart drills of
// TestCrashDrill and TestCrashRecoveryMatchesOfflineSim, every boot
// checked. The plans stay the offline run's.
func TestTierCrashDrillsMatchReference(t *testing.T) {
	world, tr := tierWorld(t)
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatal(err)
	}
	bySlot := tr.BySlot()
	half := func(slot int) int { return len(bySlot[slot]) / 2 }
	var bl bootLog
	for _, tc := range []struct {
		name      string
		instances []int // per boot, the last repeating
		crashes   []loadgen.CrashPoint
	}{
		{"frontend count changed on each reboot", []int{3, 1, 2}, []loadgen.CrashPoint{{Slot: 2, After: half(2)}, {Slot: 4, After: 0}}},
		{"mid-slot", []int{2}, []loadgen.CrashPoint{{Slot: 2, After: half(2)}}},
		{"right after a boundary", []int{2}, []loadgen.CrashPoint{{Slot: 3, After: 0}}},
		{"three crashes, two of them in one slot", []int{2}, []loadgen.CrashPoint{
			{Slot: 1, After: 3}, {Slot: 1, After: half(1)}, {Slot: 3, After: len(bySlot[3])},
		}},
		{"first slot", []int{2}, []loadgen.CrashPoint{{Slot: 0, After: half(0)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			boots := 0
			boot := func() (*server.Server, error) {
				n := tc.instances[min(boots, len(tc.instances)-1)]
				boots++
				return bl.checked(t, server.Config{World: world, Instances: n, PlanHistory: tr.Slots + 1,
					QueueBound: 1 << 20, WALDir: dir, Fsync: "always", CheckpointEvery: 2})
			}
			drill, err := loadgen.CrashDrill(boot, tr, tc.crashes)
			if err != nil {
				t.Fatalf("CrashDrill: %v", err)
			}
			for slot, want := range offline {
				if drill.Plans[slot] != want {
					t.Errorf("slot %d: plan after %d kills differs from offline", slot, len(tc.crashes))
				}
			}
		})
	}
	if bl.shorter == 0 {
		t.Errorf("none of %d boots started at a checkpoint's position", bl.boots)
	}
}

// TestTierSlotLogsMatchReference: the logs of TestQuietSlotsCheckpoint
// (one scheduled slot, ten empty ones, a checkpoint every two), of
// TestCoalescedSlotNotRescheduledAfterCrash (a lagging worker coalesces
// a slot, then catches up) and of
// TestEmptySlotCheckpointKeepsInFlightRound (a closed slot no worker
// scheduled, then an empty one), each killed and rebooted, checked.
func TestTierSlotLogsMatchReference(t *testing.T) {
	world, _ := tierWorld(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		every int
		drive func(t *testing.T, srv *server.Server)
	}{
		{"quiet slots", 2, func(t *testing.T, srv *server.Server) {
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			ingest(t, srv, 0, 6)
			for i := 0; i < 11; i++ {
				if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"coalesced slot", 2, func(t *testing.T, srv *server.Server) {
			// Not started: each advance queues its snapshot (the wait is
			// cancelled), and the fifth coalesces into the fourth.
			for k := 0; k < 5; k++ {
				ingest(t, srv, 10*k, 3+k)
				srv.AdvanceSlot(cancelled)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(20 * time.Second); len(srv.Plans()) < 4; {
				if time.Now().After(deadline) {
					t.Fatalf("%d plans, want 4", len(srv.Plans()))
				}
				time.Sleep(time.Millisecond)
			}
			ingest(t, srv, 100, 5)
		}},
		{"in-flight round", 1, func(t *testing.T, srv *server.Server) {
			ingest(t, srv, 0, 6)
			srv.AdvanceSlot(cancelled)
			srv.AdvanceSlot(cancelled) // empty; the cadence is due
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bl bootLog
			cfg := server.Config{World: world, WALDir: t.TempDir(), CheckpointEvery: tc.every}
			srv, err := bl.checked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(t, srv)
			srv.Kill()
			srv, err = bl.checked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Kill()
		})
	}
}

// TestTierFleetShrinkMatchesReference: the log of
// TestCheckpointAfterFleetShrinkCountsPendingOnce — three frontends'
// ingests, a one-frontend tier that schedules the drained slot and
// checkpoints the open one — killed and rebooted, every boot checked.
func TestTierFleetShrinkMatchesReference(t *testing.T) {
	world, _ := tierWorld(t)
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for slot, n := range []int{9, 30} {
		for i := 0; i < n; i++ {
			if _, err := l.AppendIngest(slot, i%3, 0, i%4, i%7, 1); err != nil {
				t.Fatal(err)
			}
		}
		if slot == 0 {
			if _, err := l.AppendAdvance(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var bl bootLog
	cfg := server.Config{World: world, WALDir: dir, Instances: 1, CheckpointEvery: 1}
	srv, err := bl.checked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); len(srv.Plans()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the tier never scheduled slot 0")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil { // slot 1's round checkpoints after it
		t.Fatal(err)
	}
	ingest(t, srv, 0, 4)
	srv.Kill()
	srv, err = bl.checked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	if bl.shorter == 0 {
		t.Error("the reboot did not start at the checkpoint's position")
	}
}
