package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
	"repro/internal/wal"
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

// ingestVia posts trace request q by location straight into frontend
// i mod N's handler — no socket, so it also works before Start — and
// requires the 202.
func ingestVia(t *testing.T, srv *server.Server, i int, q trace.Request) {
	t.Helper()
	body := fmt.Sprintf(`{"user":%d,"video":%d,"x":%s,"y":%s}`, q.User, q.Video,
		strconv.FormatFloat(q.Location.X, 'g', -1, 64), strconv.FormatFloat(q.Location.Y, 'g', -1, 64))
	rr := httptest.NewRecorder()
	srv.InstanceHandler(i%srv.NumInstances()).ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("ingest %d: status %d %s", i, rr.Code, rr.Body)
	}
}

// TestCrashRecoveryMatchesOfflineSim is the durability centerpiece: a
// serving tier with the WAL on is killed abruptly twice while
// replaying a trace — once mid-slot (half the slot's requests
// accepted) and once right after a slot boundary — restarted from disk
// each time, and must still finish the trace with every slot's plan
// byte-identical to an uninterrupted offline sim.Run. It runs twice:
// with three frontends throughout, and with the frontend count changed
// on each reboot (3, then 1, then 2), whose recovery must not depend
// on which frontend logged an ingest.
func TestCrashRecoveryMatchesOfflineSim(t *testing.T) {
	world, tr := durabilityWorldAndTrace(t)
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	for _, tc := range []struct {
		name      string
		instances []int // per boot
	}{
		{"three frontends", []int{3, 3, 3}},
		{"frontend count changed on each reboot", []int{3, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			boots := 0
			boot := func() (*server.Server, error) {
				n := tc.instances[boots]
				boots++
				return server.New(server.Config{
					World:           world,
					Instances:       n,
					Registry:        obs.NewRegistry(),
					PlanHistory:     tr.Slots + 1,
					QueueBound:      1 << 20,
					WALDir:          walDir,
					Fsync:           "always",
					CheckpointEvery: 2,
				})
			}
			drill, err := loadgen.CrashDrill(boot, tr, []loadgen.CrashPoint{
				// Mid-slot: half the slot's requests are accepted and
				// durable, then the process dies without any graceful
				// work.
				{Slot: 2, After: len(tr.BySlot()[2]) / 2},
				// On a boundary: slot 3's plan published and became
				// durable, then the process dies before slot 4's first
				// request.
				{Slot: 4, After: 0},
			})
			if err != nil {
				t.Fatalf("CrashDrill: %v", err)
			}
			if boots != len(tc.instances) {
				t.Fatalf("%d boots, want %d", boots, len(tc.instances))
			}
			if st := drill.Recovered[0]; st.Records == 0 {
				t.Errorf("mid-slot restart recovered no WAL records: %+v", st)
			}
			if st := drill.Recovered[1]; st.Plan == nil || st.Plan.Slot != 3 {
				t.Errorf("restart after the boundary crash did not recover slot 3's plan: %+v", st.Plan)
			}
			// Recovery is bounded by the checkpoint cadence (DESIGN §16).
			slotMax := 0
			for _, reqs := range tr.BySlot() {
				slotMax = max(slotMax, len(reqs))
			}
			for i, st := range drill.Recovered {
				if bound := wal.ReplayBound(2, slotMax); st.Records > bound {
					t.Errorf("restart %d replayed %d records, wal.ReplayBound(2, %d) = %d", i, st.Records, slotMax, bound)
				}
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
		})
	}
}

// TestMidSlotCheckpointCrashMatchesOfflineSim is the crash differential
// for a checkpoint captured while the open slot already holds demand —
// the normal case on a timer-driven tier, where the worker's cadence
// checkpoint lands while the ticker's next slot is filling, and one the
// AdvanceSlot-driven drills never produce (they checkpoint with empty
// frontends). The checkpoint's pending demand belongs to the slot that was
// open at the capture, so a log that goes on to close or plan that slot
// must move it with the slot. Two kills, each after a forced mid-slot
// checkpoint: (b) after the slot's plan record is durable — the demand
// was scheduled and must not come back as pending, where it would be
// scheduled a second time with the next slot; (a) after the advance only
// — the whole slot is queued, not half queued and half pending. Then
// the trace finishes, and every slot's plan must be the offline
// reference's, byte for byte.
func TestMidSlotCheckpointCrashMatchesOfflineSim(t *testing.T) {
	world, tr := durabilityWorldAndTrace(t)
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	bySlot := tr.BySlot()
	cfg := server.Config{
		World:       world,
		Instances:   2,
		PlanHistory: tr.Slots + 1,
		QueueBound:  1 << 20,
		WALDir:      t.TempDir(),
		Fsync:       "always",
		// The default cadence (8 scheduled slots) never fires in this
		// five-slot trace: the only checkpoints are the forced ones.
	}
	boot := func() *server.Server {
		t.Helper()
		cfg.Registry = obs.NewRegistry()
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return srv
	}
	// feed posts the slot's requests with a checkpoint forced half way.
	feed := func(srv *server.Server, slot int) {
		t.Helper()
		for i, q := range bySlot[slot] {
			if i == len(bySlot[slot])/2 {
				srv.ForceCheckpoint()
			}
			ingestVia(t, srv, i, q)
		}
	}
	planOf := func(srv *server.Server, slot int) string {
		for _, rec := range srv.Plans() {
			if rec.Slot == slot {
				return rec.Canonical
			}
		}
		return ""
	}

	// (b) Slot 0: checkpoint mid-slot, close it, kill once its plan is
	// live (so its plan record is durable).
	srv := boot()
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	feed(srv, 0)
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot 0: %v", err)
	}
	if got := planOf(srv, 0); got != offline[0] {
		t.Fatalf("slot 0: plan before the kill differs from offline")
	}
	srv.Kill()

	// Reboot without starting: nothing schedules, so the kill after
	// slot 1's advance lands before any plan record.
	srv = boot()
	st := srv.WALState()
	if st == nil || st.CheckpointSeq == 0 || st.Slot != 1 {
		t.Fatalf("reboot after slot 0's plan: state %+v, want slot 1 on a checkpoint", st)
	}
	if st.Plan == nil || st.Plan.Slot != 0 || len(st.Pending) != 0 || st.PendingRequests != 0 || len(st.Queue) != 0 {
		t.Errorf("reboot after slot 0's plan: recovered plan present %v, %d pending requests, %d queued slots; want slot 0's plan and no demand left — it was all scheduled",
			st.Plan != nil, st.PendingRequests, len(st.Queue))
	}

	// (a) Slot 1: checkpoint mid-slot, make the advance durable, kill
	// before the round.
	feed(srv, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if slot, _, err := srv.AdvanceSlot(cancelled); slot != 1 || err == nil {
		t.Fatalf("AdvanceSlot on the unstarted tier: slot %d, err %v; want slot 1 closed and the wait abandoned", slot, err)
	}
	srv.Kill()

	srv = boot()
	defer srv.Kill() // a no-op after the Close below
	st = srv.WALState()
	if st == nil || st.Slot != 2 || st.Plan == nil || st.Plan.Slot != 0 {
		t.Fatalf("reboot after slot 1's advance: state %+v, want slot 2 with slot 0's plan", st)
	}
	var queued []string
	for _, q := range st.Queue {
		queued = append(queued, fmt.Sprintf("slot %d: %d requests", q.Slot, q.Requests))
	}
	if want := []string{fmt.Sprintf("slot 1: %d requests", len(bySlot[1]))}; len(st.Pending) != 0 || !slices.Equal(queued, want) {
		t.Errorf("reboot after slot 1's advance: %d pending requests, queue %v; want nothing pending and queue %v",
			st.PendingRequests, queued, want)
	}

	// Start schedules the queued slot, in order before the rest of the
	// trace.
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for slot := 2; slot < tr.Slots; slot++ {
		feed(srv, slot)
		if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
			t.Fatalf("AdvanceSlot %d: %v", slot, err)
		}
	}
	for slot, want := range offline {
		if got := planOf(srv, slot); got != want {
			t.Errorf("slot %d: plan after the mid-slot-checkpoint kills differs from offline (%d vs %d hex bytes)", slot, len(got), len(want))
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
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
			Policy           string   `json:"policy"`
			RecoveredRecords int      `json:"recovered_records"`
			RecoverMS        *float64 `json:"recover_ms"`
			RecoveredSlot    int      `json:"recovered_slot"`
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
	if hz.WAL.RecoverMS == nil || *hz.WAL.RecoverMS <= 0 {
		t.Errorf("healthz recover_ms %v, want the boot's recovery time", hz.WAL.RecoverMS)
	}
	for _, name := range []string{"wal.recover_us", "wal.recover_plan_verify_us"} {
		if got := cfg.Registry.Counter(name).Value(); got <= 0 {
			t.Errorf("%s = %d after replaying a log with a plan in it", name, got)
		}
	}
	// The boot's own stages, which overlap, each publish their time (on
	// this small world a stage may take under a microsecond).
	published := make(map[string]bool)
	for _, c := range cfg.Registry.Snapshot(false).Counters {
		published[c.Name] = true
	}
	for _, name := range []string{"server.boot.index_us", "server.boot.pending_fold_us", "server.boot.install_us"} {
		if !published[name] {
			t.Errorf("the boot left no %s in the registry", name)
		}
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

// TestFsyncNoneKillReschedulesLostPlan crosses the seam Fsync "none"
// opens: nothing flushes the log's 64 KiB user-space buffer but its
// filling up, so a Kill can drop a plan record the tier was already
// serving while keeping the slot's boundary. The test feeds slot 1
// until the buffer will fill inside the plan record about to be
// appended, closes the slot (epoch 2 serves), and kills the tier: the
// reboot must find the torn plan record, truncate it, queue slot 1
// again, and — with every frontend's /redirect hammered from before
// Start — answer nothing but 200s carrying either the last durable
// plan (epoch 1) or the rescheduled one, whose epoch and digest are
// those the killed tier served and the offline reference gives.
func TestFsyncNoneKillReschedulesLostPlan(t *testing.T) {
	gen := trace.DefaultConfig()
	gen.Seed = 13
	gen.NumHotspots = 16
	gen.NumVideos = 400
	gen.NumUsers = 800
	gen.NumRequests = 9000
	gen.Slots = 2
	gen.NumRegions = 3
	world, tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	bySlot := tr.BySlot()

	const walBuffer = 1 << 16 // internal/wal's bufio.Writer
	cfg := server.Config{
		World:       world,
		Instances:   2,
		Registry:    obs.NewRegistry(),
		PlanHistory: 4,
		QueueBound:  1 << 20,
		WALDir:      t.TempDir(),
		Fsync:       "none",
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()
	for i, q := range bySlot[0] {
		ingestVia(t, srv, i, q)
	}
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot 0: %v", err)
	}
	plan0 := srv.Plans()[0]
	// Slot 1's plan record will be at least half as long as slot 0's;
	// its advance record is ten bytes. Stop feeding once the buffer's
	// next fill falls inside that plan record.
	walBytes := cfg.Registry.Counter("wal.bytes")
	fed := 0
	for fed < len(bySlot[1]) {
		ingestVia(t, srv, fed, bySlot[1][fed])
		fed++
		if room := walBuffer - (walBytes.Value()+10)%walBuffer; room < int64(len(plan0.Canonical)/4) {
			break
		}
	}
	if fed == len(bySlot[1]) {
		t.Fatalf("slot 1's %d requests never brought the log near a buffer boundary", fed)
	}
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot 1: %v", err)
	}
	plan1 := srv.Plans()[1]
	srv.Kill()

	ref := &trace.Trace{Slots: 2, Requests: append(append([]trace.Request(nil), bySlot[0]...), bySlot[1][:fed]...)}
	offline, err := loadgen.OfflinePlans(world, ref)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	if plan0.Canonical != offline[0] || plan1.Canonical != offline[1] || plan1.Epoch != 2 {
		t.Fatalf("the killed tier's plans (epochs %d, %d) differ from the offline reference", plan0.Epoch, plan1.Epoch)
	}

	cfg.Registry = obs.NewRegistry()
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New after the kill: %v", err)
	}
	defer srv2.Close()
	st := srv2.WALState()
	if st.Plan == nil || st.Plan.Epoch != 1 || len(st.Queue) != 1 || st.Queue[0].Slot != 1 ||
		st.Queue[0].Requests != int64(fed) || st.TruncatedBytes == 0 {
		t.Fatalf("the kill did not land on the seam: recovered plan %+v, queue %+v, %d torn bytes; want epoch 1, slot 1 queued with %d requests, a torn plan record",
			st.Plan, st.Queue, st.TruncatedBytes, fed)
	}

	allowed := map[int64]string{1: plan0.Digest, 2: plan1.Digest}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopHammer := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopHammer()
	var answers [3]atomic.Int64 // by epoch
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := srv2.InstanceHandler(g % srv2.NumInstances())
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				target := fmt.Sprintf("/redirect?video=%d&hotspot=%d", (g+7*n)%world.NumVideos, n%len(world.Hotspots))
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
				var ans struct {
					Epoch  int64  `json:"epoch"`
					Digest string `json:"digest"`
				}
				if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &ans) != nil || allowed[ans.Epoch] != ans.Digest || ans.Digest == "" {
					t.Errorf("%s answered %d %s; want a 200 carrying epoch 1 or 2 with its digest", target, rr.Code, rr.Body)
					return
				}
				answers[ans.Epoch].Add(1)
			}
		}(g)
	}
	for answers[1].Load() == 0 && !t.Failed() {
		runtime.Gosched() // the last durable plan is served before Start
	}
	if err := srv2.Start(); err != nil {
		t.Fatalf("Start after the kill: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < srv2.NumInstances(); i++ {
		for {
			if epoch, digest := srv2.InstanceEpochDigest(i); epoch == 2 && digest == plan1.Digest {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("frontend %d never served the rescheduled epoch 2", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := answers[2].Load()
	for answers[2].Load() == before && !t.Failed() {
		runtime.Gosched()
	}
	stopHammer()
	if got := srv2.Plans(); len(got) != 2 || got[1].Canonical != offline[1] || got[1].Epoch != 2 {
		t.Errorf("the rebooted tier's plan history %d long does not end in the offline plan of slot 1 at epoch 2", len(got))
	}
}
