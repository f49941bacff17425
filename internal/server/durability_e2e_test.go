package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
)

// durabilityWorldAndTrace is a multi-slot deployment sized so every
// slot actually schedules (redirects, placement) but a full
// kill/restart sweep stays fast.
func durabilityWorldAndTrace(t *testing.T) (*trace.World, *trace.Trace) {
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

// TestCrashRecoveryMatchesOfflineSim is the durability centerpiece: a
// three-frontend serving tier with the WAL on is killed abruptly twice
// while replaying a trace — once mid-slot (half the slot's requests
// accepted) and once right after a slot boundary — restarted from disk
// each time, and must still finish the trace with every slot's plan
// byte-identical to an uninterrupted offline sim.Run.
func TestCrashRecoveryMatchesOfflineSim(t *testing.T) {
	world, tr := durabilityWorldAndTrace(t)
	params := core.DefaultParams()
	offline, err := loadgen.OfflinePlans(world, tr, params)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}

	walDir := t.TempDir()
	boot := func() (*server.Server, error) {
		return server.New(server.Config{
			World:           world,
			Params:          params,
			Instances:       3,
			Registry:        obs.NewRegistry(),
			PlanHistory:     tr.Slots + 1,
			QueueBound:      1 << 20,
			WALDir:          walDir,
			Fsync:           "always",
			CheckpointEvery: 2,
		})
	}
	drill, err := loadgen.CrashDrill(boot, tr, []loadgen.CrashPoint{
		// Mid-slot: half the slot's requests are accepted and durable,
		// then the process dies without any graceful work.
		{Slot: 2, After: len(tr.BySlot()[2]) / 2},
		// On a boundary: slot 3's plan published and became durable,
		// then the process dies before slot 4's first request.
		{Slot: 4, After: 0},
	})
	if err != nil {
		t.Fatalf("CrashDrill: %v", err)
	}
	if st := drill.Recovered[0]; st.Records == 0 {
		t.Errorf("mid-slot restart recovered no WAL records: %+v", st)
	}
	if st := drill.Recovered[1]; st.Plan == nil || st.Plan.Slot != 3 {
		t.Errorf("restart after the boundary crash did not recover slot 3's plan: %+v", st.Plan)
	}

	if len(drill.Plans) != len(offline) {
		t.Fatalf("online scheduled %d slots, offline %d", len(drill.Plans), len(offline))
	}
	for slot, want := range offline {
		if got := drill.Plans[slot]; got != want {
			t.Errorf("slot %d: plan after kill/restart differs from offline (%d vs %d hex bytes)",
				slot, len(got), len(want))
		}
	}
}

// TestRecoveryServesLastDurablePlan certifies the restart boot path:
// after a crash, every frontend immediately serves the last durable
// plan (same epoch, same digest) before any new slot is scheduled,
// and /healthz reports the durability state.
func TestRecoveryServesLastDurablePlan(t *testing.T) {
	world, tr := durabilityWorldAndTrace(t)
	walDir := t.TempDir()
	cfg := server.Config{
		World:       world,
		Instances:   2,
		Registry:    obs.NewRegistry(),
		PlanHistory: 8,
		QueueBound:  1 << 20,
		WALDir:      walDir,
		Fsync:       "always",
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	first := &trace.Trace{Slots: 1, Requests: tr.BySlot()[0]}
	targets := []string{"http://" + srv.InstanceAddr(0), "http://" + srv.InstanceAddr(1)}
	rep, err := loadgen.Replay(targets[0], world, first, loadgen.Options{Targets: targets})
	if err != nil || !rep.Slots[0].Scheduled {
		t.Fatalf("replaying slot 0: %v (report %+v)", err, rep)
	}
	wantEpoch, wantDigest := srv.InstanceEpochDigest(0)
	srv.Kill()

	cfg.Registry = obs.NewRegistry()
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New after crash: %v", err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatalf("Start after crash: %v", err)
	}
	defer srv2.Close()
	for i := 0; i < srv2.NumInstances(); i++ {
		epoch, digest := srv2.InstanceEpochDigest(i)
		if epoch != wantEpoch || digest != wantDigest {
			t.Errorf("instance %d recovered (epoch %d, %s), want (epoch %d, %s)",
				i, epoch, digest, wantEpoch, wantDigest)
		}
	}
	if got := cfg.Registry.Counter("wal.recovered_records").Value(); got == 0 {
		t.Error("wal.recovered_records is 0 after replaying a non-empty log")
	}

	resp, err := http.Get("http://" + srv2.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var hz struct {
		WAL *struct {
			Policy           string `json:"policy"`
			RecoveredRecords int    `json:"recovered_records"`
			RecoveredSlot    int    `json:"recovered_slot"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if hz.WAL == nil {
		t.Fatal("healthz has no wal section with durability on")
	}
	if hz.WAL.Policy != "always" {
		t.Errorf("healthz wal policy %q, want always", hz.WAL.Policy)
	}
	if hz.WAL.RecoveredRecords == 0 {
		t.Error("healthz reports 0 recovered records")
	}
	if hz.WAL.RecoveredSlot != 1 {
		t.Errorf("healthz recovered slot %d, want 1", hz.WAL.RecoveredSlot)
	}
}

// TestKillIdempotence: Kill after Kill and Close after Kill are both
// no-ops, and a killed server rejects further advances.
func TestKillIdempotence(t *testing.T) {
	world, _ := durabilityWorldAndTrace(t)
	srv, err := server.New(server.Config{
		World:    world,
		Registry: obs.NewRegistry(),
		WALDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	srv.Kill()
	srv.Kill()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Kill: %v", err)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/admin/advance", srv.Addr()), "application/json", nil)
	if err == nil {
		resp.Body.Close()
		t.Fatal("advance succeeded against a killed server")
	}
}
