package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testWorld is a small line world: m hotspots 1 km apart with uniform
// capacities.
func testWorld(m int, svc int64, cache int) *trace.World {
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: float64(m), MaxY: 1},
		NumVideos:     100,
		CDNDistanceKm: 20,
	}
	for h := 0; h < m; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h), Y: 0},
			ServiceCapacity: svc,
			CacheCapacity:   cache,
		})
	}
	return w
}

// TestConfigValidate is the table-driven validation contract for every
// Config field, mirroring sim.Options' TestOptionsValidate.
func TestConfigValidate(t *testing.T) {
	world := testWorld(4, 5, 5)
	badWorld := testWorld(4, 5, 5)
	badWorld.NumVideos = 0
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"world only", Config{World: world}, true},
		{"nil world", Config{}, false},
		{"invalid world", Config{World: badWorld}, false},
		{"addr", Config{World: world, Addr: "127.0.0.1:0"}, true},
		{"instances", Config{World: world, Instances: 4}, true},
		{"negative instances", Config{World: world, Instances: -1}, false},
		{"instances above cap", Config{World: world, Instances: maxInstances + 1}, false},
		{"queue bound", Config{World: world, QueueBound: 10}, true},
		{"negative queue bound", Config{World: world, QueueBound: -1}, false},
		{"slot duration", Config{World: world, SlotDuration: time.Second}, true},
		{"manual slots", Config{World: world, SlotDuration: 0}, true},
		{"negative slot duration", Config{World: world, SlotDuration: -time.Second}, false},
		{"plan history", Config{World: world, PlanHistory: 8}, true},
		{"negative plan history", Config{World: world, PlanHistory: -1}, false},
		{"drain timeout", Config{World: world, DrainTimeout: time.Second}, true},
		{"negative drain timeout", Config{World: world, DrainTimeout: -time.Second}, false},
		{"wal dir", Config{World: world, WALDir: t.TempDir()}, true},
		{"wal dir not yet created", Config{World: world, WALDir: t.TempDir() + "/sub/wal"}, true},
		{"wal full config", Config{World: world, WALDir: t.TempDir(), Fsync: "interval",
			FsyncInterval: time.Second, CheckpointEvery: 4}, true},
		{"fsync none", Config{World: world, WALDir: t.TempDir(), Fsync: "none"}, true},
		{"unknown fsync policy", Config{World: world, WALDir: t.TempDir(), Fsync: "sometimes"}, false},
		{"fsync without wal dir", Config{World: world, Fsync: "always"}, false},
		{"fsync interval without wal dir", Config{World: world, FsyncInterval: time.Second}, false},
		{"checkpoint every without wal dir", Config{World: world, CheckpointEvery: 4}, false},
		{"negative fsync interval", Config{World: world, WALDir: t.TempDir(), FsyncInterval: -time.Second}, false},
		{"negative checkpoint every", Config{World: world, WALDir: t.TempDir(), CheckpointEvery: -1}, false},
		{"wal dir is a file", Config{World: world, WALDir: walFilePath(t)}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "server:") {
			t.Errorf("%s: error lacks field context: %v", tc.name, err)
		}
	}
}

// walFilePath creates a regular file where a WAL directory would go.
func walFilePath(t *testing.T) string {
	t.Helper()
	p := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// newTestServer builds an unstarted server plus its handler for direct
// (socketless) HTTP exercise.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// servingPlanOf builds the table publish builds for plan's canonical
// bytes on world.
func servingPlanOf(t *testing.T, plan *core.Plan, world *trace.World) *servingPlan {
	t.Helper()
	canonical := plan.Canonical()
	decoded, err := core.DecodeCanonical(canonical)
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	sp, err := newServingPlan(1, 0, decoded, core.DigestOf(canonical), world)
	if err != nil {
		t.Fatalf("newServingPlan: %v", err)
	}
	return sp
}

// do runs one request against the server's mux.
func do(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func TestIngestValidation(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(4, 5, 5), Registry: reg})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"by location", `{"user":1,"video":2,"x":1.2,"y":0.1}`, http.StatusAccepted},
		{"by hotspot", `{"user":1,"video":2,"hotspot":3}`, http.StatusAccepted},
		{"malformed json", `{"user":`, http.StatusBadRequest},
		{"unknown field", `{"user":1,"video":2,"x":0,"y":0,"zz":1}`, http.StatusBadRequest},
		{"trailing data", `{"user":1,"video":2,"hotspot":0}{"again":true}`, http.StatusBadRequest},
		{"negative video", `{"user":1,"video":-3,"hotspot":0}`, http.StatusBadRequest},
		{"video beyond catalogue", `{"user":1,"video":100,"hotspot":0}`, http.StatusBadRequest},
		{"negative hotspot", `{"user":1,"video":2,"hotspot":-1}`, http.StatusBadRequest},
		{"hotspot beyond fleet", `{"user":1,"video":2,"hotspot":4}`, http.StatusBadRequest},
		{"no aggregation point", `{"user":1,"video":2}`, http.StatusBadRequest},
		{"missing y", `{"user":1,"video":2,"x":0}`, http.StatusBadRequest},
		{"nan location", `{"user":1,"video":2,"x":1e999,"y":0}`, http.StatusBadRequest},
		{"oversized body", `{"user":1,"video":2,"hotspot":0,"pad":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rr := do(t, s, http.MethodPost, "/ingest", tc.body)
		if rr.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rr.Code, tc.status, rr.Body.String())
		}
	}
	if got := reg.Counter("server.ingest.accepted").Value(); got != 2 {
		t.Errorf("accepted counter = %d, want 2", got)
	}
	if got := reg.Counter("server.ingest.malformed").Value(); got != 10 {
		t.Errorf("malformed counter = %d, want 10", got)
	}
	if got := reg.Counter("server.ingest.oversized").Value(); got != 1 {
		t.Errorf("oversized counter = %d, want 1", got)
	}
	if rr := do(t, s, http.MethodGet, "/ingest", ""); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status %d, want 405", rr.Code)
	}
}

// TestBackpressure fills one frontend to its bound and checks the 429
// path: the bound is the frontend's, so every hotspot it owns is
// refused and another frontend's is not; rejections are visible in the
// counter, accepted requests all survive into the slot's demand, and
// the slot boundary reopens the frontend.
func TestBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	const hotspots = 16
	s := newTestServer(t, Config{World: testWorld(hotspots, 50, 50), Instances: 2, QueueBound: 3, Registry: reg})
	full := s.owner(0).id
	sibling, other := -1, -1
	for h := 1; h < hotspots; h++ {
		if s.owner(h).id != full {
			other = h
		} else {
			sibling = h
		}
	}
	if sibling < 0 || other < 0 {
		t.Fatalf("owner gave one frontend every hotspot or only hotspot 0 — test world too small")
	}
	ingest := func(h int) int {
		return do(t, s, http.MethodPost, "/ingest", fmt.Sprintf(`{"user":1,"video":2,"hotspot":%d}`, h)).Code
	}
	for i := 0; i < 3; i++ {
		if code := ingest(0); code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, code)
		}
	}
	for _, h := range []int{0, sibling} {
		if code := ingest(h); code != http.StatusTooManyRequests {
			t.Fatalf("over-bound ingest at hotspot %d: status %d, want 429", h, code)
		}
	}
	if code := ingest(other); code != http.StatusAccepted {
		t.Fatalf("ingest at another frontend's hotspot %d: status %d, want 202", other, code)
	}
	if got := reg.Counter("server.ingest.rejected").Value(); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}
	demand, n := s.instances[full].handOver(1)
	if n != 3 || demand.Totals[0] != 3 {
		t.Fatalf("handed over %d requests (hotspot0 %d), want 3 accepted", n, demand.Totals[0])
	}
	// The frontend reopened at the boundary.
	if code := ingest(sibling); code != http.StatusAccepted {
		t.Fatalf("post-boundary ingest rejected: %d", code)
	}
}

// TestMergeDemand: a slot boundary hands the round the very demand
// ingest accumulated into, and coalescing into a full queue folds a
// snapshot's counts into the newest queued one without losing any.
func TestMergeDemand(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(3, 10, 10), Registry: reg})
	ingest := func(h, v int) {
		t.Helper()
		body := fmt.Sprintf(`{"user":1,"video":%d,"hotspot":%d}`, v, h)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: status %d", rr.Code)
		}
	}
	// No worker runs: snapshots stay queued where the test can see them.
	for k := 0; k < maxSnapshotQueue; k++ {
		ingest(0, 1)
		ingest(2, 5)
		acc := s.instances[0].demand
		s.advance(nil, false)
		if got := s.queue[k].demand; got != acc {
			t.Fatalf("slot %d schedules demand %p, ingest accumulated into %p", k, got, acc)
		}
		if s.instances[0].demand == acc || s.instances[0].pending != 0 {
			t.Fatalf("slot %d: frontend kept the demand it handed over", k)
		}
	}
	ingest(0, 1)
	ingest(0, 1)
	ingest(1, 4)
	s.advance(nil, false)
	if len(s.queue) != maxSnapshotQueue || reg.Counter("server.slots.coalesced").Value() != 1 {
		t.Fatalf("queue %d snapshots, coalesced %d", len(s.queue), reg.Counter("server.slots.coalesced").Value())
	}
	last := s.queue[maxSnapshotQueue-1]
	if last.slot != maxSnapshotQueue || last.requests != 5 {
		t.Fatalf("coalesced snapshot: slot %d, %d requests", last.slot, last.requests)
	}
	dst := last.demand
	if dst.Count(0, 1) != 3 || dst.Count(1, 4) != 1 || dst.Count(2, 5) != 1 {
		t.Fatalf("merged demand %v %v %v", dst.VideoCounts(0), dst.VideoCounts(1), dst.VideoCounts(2))
	}
	if dst.Totals[0] != 3 || dst.Totals[1] != 1 || dst.Totals[2] != 1 {
		t.Fatalf("merged totals %v", dst.Totals)
	}
}

// TestLookupBeforeFirstPlan: with no plan swapped in yet, every lookup
// falls back to the CDN.
func TestLookupBeforeFirstPlan(t *testing.T) {
	s := newTestServer(t, Config{World: testWorld(3, 5, 5)})
	rr := do(t, s, http.MethodGet, "/redirect?video=1&hotspot=0", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("redirect status %d", rr.Code)
	}
	var resp struct {
		Target int `json:"target"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Target != CDN {
		t.Fatalf("target %d before first plan, want CDN (%d)", resp.Target, CDN)
	}
	for _, q := range []string{"", "?video=1", "?video=x&hotspot=0", "?video=-1&hotspot=0", "?video=1&hotspot=99"} {
		if rr := do(t, s, http.MethodGet, "/redirect"+q, ""); rr.Code != http.StatusBadRequest {
			t.Errorf("redirect%s status %d, want 400", q, rr.Code)
		}
	}
}

// TestManualSlotLifecycle drives the full loop without a socket:
// ingest → AdvanceSlot → plan swap → lookups served from the plan.
func TestManualSlotLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64, true)
	world := testWorld(3, 10, 10)
	s := newTestServer(t, Config{World: world, Registry: reg, Tracer: tracer})
	s.wg.Add(1)
	go s.recomputeLoop()
	defer func() {
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
	}()

	// Empty slot: counter advances, no plan.
	slot, rec, err := s.AdvanceSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 || rec.Epoch != 0 {
		t.Fatalf("empty slot advance = (%d, %+v)", slot, rec)
	}

	// Demand at hotspot 0 for videos it should place locally.
	for v := 0; v < 4; v++ {
		for k := 0; k < 3; k++ {
			body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":0}`, k, v)
			if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
				t.Fatalf("ingest: %d", rr.Code)
			}
		}
	}
	slot, rec, err = s.AdvanceSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if slot != 1 || rec.Epoch != 1 || rec.Requests != 12 {
		t.Fatalf("advance = (%d, %+v), want slot 1 epoch 1 requests 12", slot, rec)
	}
	sp := s.instances[0].current.Load()
	if sp == nil || sp.slot != 1 {
		t.Fatalf("serving plan %+v, want slot 1", sp)
	}

	// A lookup for demanded content at its aggregation hotspot must not
	// answer CDN (capacity 10 covers the 12-request slot's top videos).
	rr := do(t, s, http.MethodGet, "/redirect?video=0&hotspot=0", "")
	var resp struct {
		Target int    `json:"target"`
		Epoch  int64  `json:"epoch"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Target == CDN {
		t.Fatalf("demanded video routed to CDN: %+v (plans %+v)", resp, s.Plans())
	}
	if resp.Epoch != 1 || resp.Digest != digestString(sp.digest) {
		t.Fatalf("lookup stamped %+v, want epoch 1 digest %s", resp, digestString(sp.digest))
	}
	if got := reg.Counter("server.plan.swaps").Value(); got != 1 {
		t.Errorf("swap counter = %d, want 1", got)
	}
	if hist := s.Plans(); len(hist) != 1 || hist[0].Slot != 1 {
		t.Errorf("history %+v, want one record for slot 1", hist)
	}

	// GET /plans serves the same history, canonical bytes included.
	var records []PlanRecord
	pr := do(t, s, http.MethodGet, "/plans", "")
	if err := json.Unmarshal(pr.Body.Bytes(), &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Canonical == "" || records[0].Digest != digestString(sp.digest) {
		t.Fatalf("/plans = %+v", records)
	}

	// The tracer saw the swap.
	events := tracer.Events()
	if len(events) != 1 || events[0].Type != "swap" || events[0].Slot != 1 {
		t.Fatalf("trace events %+v, want one swap for slot 1", events)
	}
}

// TestRedirectEntryProportionalRouting pins the plan's routing order
// at one hotspot: its redirect group's planned counts once, in plan
// order, then local service while the budget (capacity minus reserved
// inflow) lasts, then the CDN. Hotspot 1 places the video too, but the
// inflow the plan reserves there fills its capacity.
func TestRedirectEntryProportionalRouting(t *testing.T) {
	plan := &core.Plan{
		Redirects: []core.Redirect{
			{From: 0, To: 1, Video: 5, Count: 2},
			{From: 0, To: 3, Video: 5, Count: 0}, // planned nothing: never a target
			{From: 0, To: 2, Video: 5, Count: 1},
		},
		Placement:     core.PlacementRuns{IDs: []int32{5, 5}, Off: []int{0, 1, 2, 2, 2}},
		OverflowToCDN: make([]int64, 4),
	}
	sp := servingPlanOf(t, plan, testWorld(4, 2, 10))
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, sp.lookup(0, 5))
	}
	if want := []int{1, 1, 2, 0, 0, CDN, CDN}; !slices.Equal(got, want) {
		t.Fatalf("routing sequence %v, want %v", got, want)
	}
	if got := sp.lookup(1, 5); got != CDN {
		t.Fatalf("hotspot 1, its capacity reserved by inflow, answered %d, want the CDN", got)
	}
}

// TestGracefulShutdownFlushesPending: requests accepted but not yet
// snapshotted are scheduled by Close's final flush — nothing is
// silently dropped.
func TestGracefulShutdownFlushesPending(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(3, 10, 10), Registry: reg})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		body := fmt.Sprintf(`{"user":1,"video":%d,"hotspot":1}`, v)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: %d", rr.Code)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	hist := s.Plans()
	if len(hist) != 1 || hist[0].Requests != 3 {
		t.Fatalf("history after close %+v, want one 3-request record", hist)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := s.AdvanceSlot(context.Background()); err == nil {
		t.Fatalf("AdvanceSlot after Close succeeded")
	}
	if rr := do(t, s, http.MethodPost, "/admin/advance", ""); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("advance after Close: status %d, want 503", rr.Code)
	}
}

// TestConcurrentIngestLookupSwap is the tentpole race test: ingest,
// lookup, and slot swaps all run concurrently (under -race in CI), and
// every lookup must observe an internally consistent plan — its
// (epoch, digest) stamp must match a plan the server actually
// published, proving no partially applied plan is ever visible — while
// every request sent is accepted and lands in exactly one scheduled
// slot. The three-frontend case rotates its posts over every frontend,
// so hand-over, row adoption and WAL appends race real ingests.
func TestConcurrentIngestLookupSwap(t *testing.T) {
	world := testWorld(8, 20, 20)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one frontend", Config{World: world}},
		{"three frontends, wal", Config{World: world, Instances: 3, WALDir: t.TempDir(), Fsync: "none"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.cfg.Registry = reg
			s := newTestServer(t, tc.cfg)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			frontends := s.NumInstances()

			type stamp struct {
				Epoch  int64  `json:"epoch"`
				Digest string `json:"digest"`
			}
			var (
				mu       sync.Mutex
				observed = map[stamp]bool{}
				sent     atomic.Int64
			)
			post := func(at int, body string) {
				sent.Add(1)
				if rr := doAt(t, s, at%frontends, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
					t.Errorf("ingest status %d", rr.Code)
				}
			}
			stopIngest := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stopIngest:
							return
						default:
						}
						post(w+i, fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, w, (w*31+i)%world.NumVideos, (w+i)%len(world.Hotspots)))
					}
				}(w)
			}
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stopIngest:
							return
						default:
						}
						rr := doAt(t, s, (w+i)%frontends, http.MethodGet,
							fmt.Sprintf("/redirect?video=%d&hotspot=%d", (w*7+i)%world.NumVideos, i%len(world.Hotspots)), "")
						if rr.Code != http.StatusOK {
							t.Errorf("redirect status %d", rr.Code)
							return
						}
						var st stamp
						if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
							t.Errorf("redirect body: %v", err)
							return
						}
						if st.Epoch != 0 {
							mu.Lock()
							observed[st] = true
							mu.Unlock()
						}
					}
				}(w)
			}
			for k := 0; k < 20; k++ {
				// Seed demand from the main goroutine too, so every slot has
				// something to schedule even if the ingest workers are starved.
				for v := 0; v < 8; v++ {
					post(v, fmt.Sprintf(`{"user":1,"video":%d,"hotspot":%d}`, v, v%len(world.Hotspots)))
				}
				if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
					t.Fatalf("AdvanceSlot: %v", err)
				}
				time.Sleep(time.Millisecond)
			}
			// Keep the lookup workers running until at least one plan has been
			// observed (the swaps above guarantee plans exist).
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				n := len(observed)
				mu.Unlock()
				if n > 0 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(stopIngest)
			wg.Wait()
			// One more boundary schedules whatever the workers posted last.
			if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
				t.Fatalf("AdvanceSlot: %v", err)
			}

			published := map[stamp]bool{}
			var scheduled int64
			for _, rec := range s.Plans() {
				published[stamp{Epoch: rec.Epoch, Digest: rec.Digest}] = true
				scheduled += rec.Requests
			}
			if accepted := reg.Counter("server.ingest.accepted").Value(); scheduled != accepted || accepted != sent.Load() {
				t.Errorf("sent %d, accepted %d, scheduled %d: want all equal", sent.Load(), accepted, scheduled)
			}
			if got := reg.Counter("server.wal.errors").Value(); got != 0 {
				t.Errorf("server.wal.errors = %d", got)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(observed) == 0 {
				t.Fatalf("no lookup observed any plan")
			}
			for st := range observed {
				if !published[st] {
					t.Errorf("lookup observed (epoch %d, digest %s) never published — partial plan?", st.Epoch, st.Digest)
				}
			}
		})
	}
}

// TestTimedSlots exercises the ticker path: with a short SlotDuration,
// accumulated demand is scheduled without manual advances.
func TestTimedSlots(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(3, 10, 10), Registry: reg, SlotDuration: 5 * time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for v := 0; v < 3; v++ {
		body := fmt.Sprintf(`{"user":1,"video":%d,"hotspot":0}`, v)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: %d", rr.Code)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.instances[0].current.Load() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s.instances[0].current.Load() == nil {
		t.Fatalf("ticker never swapped a plan in")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestHealthz checks the liveness endpoint and the queue depth it
// reports: pending rises with accepted ingests and returns to 0 once a
// slot boundary has taken them.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{World: testWorld(2, 5, 5)})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pending := func() int64 {
		t.Helper()
		rr := do(t, s, http.MethodGet, "/healthz", "")
		var resp struct {
			Status   string `json:"status"`
			Instance *int   `json:"instance"`
			Pending  *int64 `json:"pending"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || rr.Code != http.StatusOK {
			t.Fatalf("healthz = %d %s (%v)", rr.Code, rr.Body.String(), err)
		}
		if resp.Status != "ok" || resp.Instance == nil || resp.Pending == nil {
			t.Fatalf("healthz = %s, want status ok with instance and pending", rr.Body.String())
		}
		return *resp.Pending
	}
	if got := pending(); got != 0 {
		t.Fatalf("pending before any ingest = %d", got)
	}
	for i := 1; i <= 3; i++ {
		if rr := do(t, s, http.MethodPost, "/ingest", `{"user":1,"video":2,"hotspot":1}`); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest: status %d", rr.Code)
		}
		if got := pending(); got != int64(i) {
			t.Fatalf("pending after %d ingests = %d", i, got)
		}
	}
	if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot: %v", err)
	}
	if got := pending(); got != 0 {
		t.Fatalf("pending after AdvanceSlot = %d, want 0", got)
	}
}
