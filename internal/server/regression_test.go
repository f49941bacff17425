package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// TestAdvanceRejectedAfterClose is the lifecycle regression: a tick or
// manual advance that loses the race with Close must be rejected under
// the same lock that guards closed, not enqueue a snapshot the worker
// will never drain.
func TestAdvanceRejectedAfterClose(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(3, 10, 10), Registry: reg})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	slotBefore := s.slot

	// A late ticker-style advance (what tickLoop calls) must be a no-op.
	if _, ok := s.advance(nil, false); ok {
		t.Error("advance after Close reported ok")
	}
	if got := reg.Counter("server.slots.rejected").Value(); got != 1 {
		t.Errorf("server.slots.rejected = %d, want 1", got)
	}
	if s.slot != slotBefore {
		t.Errorf("rejected advance still moved the slot counter %d → %d", slotBefore, s.slot)
	}
	if len(s.queue) != 0 {
		t.Errorf("rejected advance left %d snapshots queued", len(s.queue))
	}

	// The done channel of a rejected advance must stay open (the caller
	// gets ok=false instead of a wait), so AdvanceSlot errors promptly.
	if _, _, err := s.AdvanceSlot(context.Background()); err == nil {
		t.Error("AdvanceSlot after Close succeeded")
	}
}

// TestCloseAdvanceSlotRace interleaves AdvanceSlot callers and ingest
// with Close (run under -race in CI): no caller may hang, and after
// Close returns no snapshot may remain queued — accepted demand is
// either scheduled by the final flush or was rejected visibly.
func TestCloseAdvanceSlotRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := newTestServer(t, Config{World: testWorld(4, 10, 10), QueueBound: 1 << 20})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, w, i%100, i%4)
					do(t, s, http.MethodPost, "/ingest", body)
					if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
						return // closed mid-loop: expected
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued != 0 {
			t.Fatalf("round %d: %d snapshots stranded in the queue after Close", round, queued)
		}
	}
}

// TestSlotLatencyMicrosHistogram pins the latency histogram to
// microsecond buckets: sub-millisecond rounds (the norm for delta
// slots) must land in a non-zero bucket instead of all collapsing into
// bucket zero of a milliseconds histogram. server.slot.install_us
// times every publish: one observation per epoch.
func TestSlotLatencyMicrosHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(3, 10, 10), Registry: reg})
	s.wg.Add(1)
	go s.recomputeLoop()
	defer func() {
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
	}()
	const slots = 3
	for slot := 0; slot < slots; slot++ {
		for v := 0; v < 4; v++ {
			body := fmt.Sprintf(`{"user":1,"video":%d,"hotspot":0}`, v+slot)
			if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
				t.Fatalf("ingest: %d", rr.Code)
			}
		}
		if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Histogram("server.slot.latency_us", obs.PowersOf2Buckets(24)).Count(); got != slots {
		t.Errorf("server.slot.latency_us count = %d, want %d", got, slots)
	}
	if got := reg.Histogram("server.slot.install_us", obs.PowersOf2Buckets(24)).Count(); got != s.epoch || got != slots {
		t.Errorf("server.slot.install_us count = %d, want one per epoch (%d)", got, s.epoch)
	}
}

// TestRecoveredPlanFromAnotherWorldRejected boots a server on a WAL an
// 8-hotspot world wrote, with a 2-hotspot world. The durable plan
// passes its digest and grammar, but it redirects hotspot 1's surplus
// to hotspots outside the new fleet: recovery must refuse it loudly
// instead of serving targets that do not exist.
func TestRecoveredPlanFromAnotherWorldRejected(t *testing.T) {
	dir := t.TempDir()
	big := newTestServer(t, Config{World: testWorld(8, 2, 10), WALDir: dir})
	if err := big.Start(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":1}`, v, v%4)
		if rr := do(t, big, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: %d", rr.Code)
		}
	}
	if _, _, err := big.AdvanceSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	canonical, err := hex.DecodeString(big.Plans()[0].Canonical)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DecodeCanonical(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(plan.Redirects, func(rd core.Redirect) bool { return rd.To >= 2 }) {
		t.Fatal("the 8-hotspot plan redirects nothing past hotspot 1; the scenario needs it to")
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, err = New(Config{World: testWorld(2, 2, 10), WALDir: dir, Registry: reg})
	if err == nil || !strings.Contains(err.Error(), "recovered plan rejected") {
		t.Fatalf("New on a foreign world's WAL: %v, want the recovered plan rejected", err)
	}
	if got := reg.Counter("server.plan.rejects").Value(); got != 1 {
		t.Errorf("server.plan.rejects = %d, want 1", got)
	}
}

// TestCheckFits refuses each way a decoded plan can reach outside a
// world of 3 hotspots and 10 videos.
func TestCheckFits(t *testing.T) {
	fits := func() *core.DecodedPlan {
		return &core.DecodedPlan{
			Flows:         []core.FlowEdge{{From: 0, To: 1, Amount: 1}},
			Redirects:     []core.Redirect{{From: 0, To: 1, Video: 2, Count: 1}},
			Placement:     core.PlacementRuns{IDs: []int32{2, 3, 9}, Off: []int{0, 1, 3, 3}},
			OverflowToCDN: make([]int64, 3),
		}
	}
	if err := checkFits(fits(), 3, 10); err != nil {
		t.Fatalf("a fitting plan refused: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p *core.DecodedPlan)
	}{
		{"extra placement row", func(p *core.DecodedPlan) { p.Placement.Off = append(p.Placement.Off, 3) }},
		{"short overflow", func(p *core.DecodedPlan) { p.OverflowToCDN = p.OverflowToCDN[:2] }},
		{"flow source outside", func(p *core.DecodedPlan) { p.Flows[0].From = 3 }},
		{"flow target negative", func(p *core.DecodedPlan) { p.Flows[0].To = -1 }},
		{"redirect source outside", func(p *core.DecodedPlan) { p.Redirects[0].From = 5 }},
		{"redirect target outside", func(p *core.DecodedPlan) { p.Redirects[0].To = 3 }},
		{"redirect video outside", func(p *core.DecodedPlan) { p.Redirects[0].Video = 10 }},
		{"placement id negative", func(p *core.DecodedPlan) { p.Placement.IDs[0] = -1 }},
		{"placement id outside", func(p *core.DecodedPlan) { p.Placement.IDs[2] = 10 }},
	}
	for _, tc := range cases {
		p := fits()
		tc.mutate(p)
		if err := checkFits(p, 3, 10); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestCoalescedSlotNotRescheduledAfterCrash: with the worker lagging,
// advance coalesces a slot into the newest queued snapshot, which
// schedules under the newer slot number — the older slot's ingests
// never get an outcome record of their own. A reboot before the next
// checkpoint must still count them consumed by the plan that
// scheduled them, not queue them for a second round.
func TestCoalescedSlotNotRescheduledAfterCrash(t *testing.T) {
	cfg := Config{World: testWorld(4, 50, 50), WALDir: t.TempDir()}
	s := newTestServer(t, cfg) // never started: no worker drains the queue
	ingest := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%5, i%4)
			if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
				t.Fatalf("ingest: %d %s", rr.Code, rr.Body)
			}
		}
	}
	for k := 0; k <= maxSnapshotQueue; k++ {
		ingest(3 + k)
		if _, ok := s.advance(nil, false); !ok {
			t.Fatalf("advance %d rejected", k)
		}
	}
	if got := s.reg.Counter("server.slots.coalesced").Value(); got != 1 {
		t.Fatalf("server.slots.coalesced = %d, want 1", got)
	}
	s.drainQueue()
	if got := s.reg.Counter("server.plan.swaps").Value(); got != maxSnapshotQueue {
		t.Fatalf("%d plans, want %d", got, maxSnapshotQueue)
	}
	const acked = 5 // acknowledged after the last advance
	ingest(acked)
	s.Kill()

	cfg.Registry = obs.NewRegistry()
	s2 := newTestServer(t, cfg)
	defer s2.Kill()
	st := s2.WALState()
	if len(st.Queue) != 0 {
		t.Errorf("recovery queued %+v again; every drained slot was scheduled", st.Queue)
	}
	if st.PendingRequests != acked || st.Slot != maxSnapshotQueue+1 {
		t.Errorf("recovered %d pending requests at slot %d, want %d at slot %d",
			st.PendingRequests, st.Slot, acked, maxSnapshotQueue+1)
	}
}

// TestQuietSlotsCheckpoint: an empty slot still logs its advance, so it
// must count toward CheckpointEvery — a tier that sits idle behind a
// ticker would otherwise grow its log and never collect a segment. One
// scheduled slot and ten empty ones are eleven outcomes: five
// checkpoints at CheckpointEvery 2, and a reboot lands on the last.
func TestQuietSlotsCheckpoint(t *testing.T) {
	cfg := Config{World: testWorld(4, 50, 50), WALDir: t.TempDir(), CheckpointEvery: 2}
	s := newTestServer(t, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%3, i%4)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", rr.Code, rr.Body)
		}
	}
	ctx := context.Background()
	if _, rec, err := s.AdvanceSlot(ctx); err != nil || rec.Epoch != 1 {
		t.Fatalf("scheduled slot: epoch %d, err %v", rec.Epoch, err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := s.AdvanceSlot(ctx); err != nil {
			t.Fatalf("empty slot %d: %v", i, err)
		}
	}
	s.Kill()

	cfg.Registry = obs.NewRegistry()
	s2 := newTestServer(t, cfg)
	defer s2.Kill()
	st := s2.WALState()
	if st.CheckpointSeq < 5 {
		t.Errorf("recovered from checkpoint %d, want >= 5: empty slots did not count toward the cadence", st.CheckpointSeq)
	}
	if st.Epoch != 1 || st.Slot != 11 || st.PendingRequests != 0 || len(st.Pending) != 0 || len(st.Queue) != 0 {
		t.Errorf("recovered epoch %d at slot %d with %d pending requests, %d queued slots; want epoch 1 at slot 11, nothing pending",
			st.Epoch, st.Slot, st.PendingRequests, len(st.Queue))
	}
}

// TestEmptySlotCheckpointKeepsInFlightRound: the worker pops a
// snapshot before it schedules it, so mid-round the slot's demand is in
// neither s.queue nor any frontend, and no outcome record holds it yet.
// An empty slot that makes a checkpoint due in that window must not
// capture one there: the capture's cursors would cover the slot's
// ingests, replay would skip them, and a crash before the plan is
// durable would lose acknowledged requests. The worker is not started;
// the test pops the snapshot the way drainQueue does and leaves it
// unscheduled, then crashes.
func TestEmptySlotCheckpointKeepsInFlightRound(t *testing.T) {
	cfg := Config{World: testWorld(4, 50, 50), WALDir: t.TempDir(), CheckpointEvery: 1}
	s := newTestServer(t, cfg)
	const acked = 6
	for i := 0; i < acked; i++ {
		body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%3, i%4)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", rr.Code, rr.Body)
		}
	}
	if _, ok := s.advance(nil, false); !ok {
		t.Fatal("advance rejected")
	}
	s.mu.Lock()
	s.queue = s.queue[1:] // the worker's pop: slot 0 is now in flight
	s.mu.Unlock()
	if _, ok := s.advance(nil, false); !ok { // empty; the cadence is due
		t.Fatal("empty advance rejected")
	}
	s.Kill()

	cfg.Registry = obs.NewRegistry()
	s2 := newTestServer(t, cfg)
	defer s2.Kill()
	st := s2.WALState()
	if len(st.Queue) != 1 || st.Queue[0].Slot != 0 || st.Queue[0].Requests != acked || st.Slot != 2 {
		t.Errorf("recovered queue %+v at slot %d (checkpoint %d), want slot 0's %d requests queued at slot 2",
			st.Queue, st.Slot, st.CheckpointSeq, acked)
	}
}

// TestCheckpointAfterFleetShrinkCountsPendingOnce boots a one-frontend
// tier on a log three frontends wrote: slot 0 drained with no plan,
// slot 1 open with 30 accepted ingests spread over all three. The tier
// schedules slot 0 and checkpoints, so the checkpoint holds slot 1's
// 30 requests as pending. After a kill, the reboot must recover those
// 30 once: every logged ingest is part of that checkpoint, whichever
// frontend wrote it.
func TestCheckpointAfterFleetShrinkCountsPendingOnce(t *testing.T) {
	const frontends, slot0, slot1 = 3, 9, 30
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(slot, i int) {
		t.Helper()
		if _, err := l.AppendIngest(slot, i%frontends, 0, i%4, i%7, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < slot0; i++ {
		ingest(0, i)
	}
	if _, err := l.AppendAdvance(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slot1; i++ {
		ingest(1, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Config{World: testWorld(4, 50, 50), WALDir: dir, Instances: 1, CheckpointEvery: 1, Registry: obs.NewRegistry()}
	s := newTestServer(t, cfg)
	if st := s.WALState(); st.PendingRequests != slot1 || len(st.Queue) != 1 || st.Queue[0].Requests != slot0 {
		t.Fatalf("first boot recovered %d pending requests and queue %+v, want %d pending and slot 0's %d queued",
			st.PendingRequests, st.Queue, slot1, slot0)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	checkpoints := cfg.Registry.Counter("wal.checkpoints")
	for deadline := time.Now().Add(20 * time.Second); checkpoints.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the tier never checkpointed after scheduling slot 0")
		}
		runtime.Gosched()
	}
	s.Kill()

	cfg.Registry = obs.NewRegistry()
	s2 := newTestServer(t, cfg)
	defer s2.Kill()
	st := s2.WALState()
	if st.CheckpointSeq == 0 || st.Epoch != 1 || len(st.Queue) != 0 {
		t.Fatalf("reboot: checkpoint %d, epoch %d, queue %+v; want slot 0 scheduled and checkpointed", st.CheckpointSeq, st.Epoch, st.Queue)
	}
	if st.PendingRequests != slot1 {
		t.Errorf("reboot recovered %d pending requests, %d were accepted", st.PendingRequests, slot1)
	}
}
