package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// doAt runs one request against a specific frontend instance's mux.
func doAt(t *testing.T, s *Server, inst int, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	s.InstanceHandler(inst).ServeHTTP(rr, req)
	return rr
}

// TestOverReservingPlanRefused: a plan that passes its digest, its
// grammar and checkFits but reserves more inflow at a hotspot than its
// nominal capacity is refused like any other bad epoch — once per
// frontend, once in server.plan.rejects — and every frontend keeps
// serving its previous plan.
func TestOverReservingPlanRefused(t *testing.T) {
	reg := obs.NewRegistry()
	const instances = 2
	s := newTestServer(t, Config{World: testWorld(3, 2, 10), Registry: reg, Instances: instances})
	publish := func(epoch int64, count int64) error {
		plan := &core.Plan{
			Redirects:     []core.Redirect{{From: 0, To: 1, Video: 5, Count: count}},
			Placement:     core.PlacementRuns{Off: []int{0, 0, 0, 0}},
			OverflowToCDN: make([]int64, 3),
		}
		canonical := plan.Canonical()
		return s.publish(epoch, 0, canonical, core.DigestOf(canonical))
	}
	if err := publish(1, 2); err != nil {
		t.Fatalf("a plan reserving hotspot 1's whole capacity: %v", err)
	}
	base := s.instances[0].current.Load()
	if err := publish(2, 3); err == nil {
		t.Fatal("publish accepted a plan reserving 3 at a hotspot of capacity 2")
	}
	for i, in := range s.instances {
		if in.current.Load() != base {
			t.Errorf("frontend %d: the refused plan replaced the serving plan", i)
		}
		if got := in.rejects.Value(); got != 1 {
			t.Errorf("frontend %d: plan_rejects %d, want 1", i, got)
		}
	}
	if got := reg.Counter("server.plan.rejects").Value(); got != 1 {
		t.Errorf("server.plan.rejects = %d, want 1", got)
	}
}

// TestInstallVerification pins the one install path: publish only
// swaps in a plan whose bytes hash to the advertised digest and decode
// strictly. Every corruption is refused loudly — once per frontend in
// plan_rejects, once in server.plan.rejects, one swap-reject event —
// and leaves every frontend on its previous plan.
func TestInstallVerification(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64, true)
	const instances = 2
	s := newTestServer(t, Config{World: testWorld(4, 10, 10), Registry: reg, Tracer: tracer, Instances: instances, QueueBound: 1 << 16})
	s.wg.Add(1)
	go s.recomputeLoop()
	defer func() {
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
	}()

	for i := 0; i < 12; i++ {
		rr := do(t, s, http.MethodPost, "/ingest", fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%7, i%4))
		if rr.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, rr.Code)
		}
	}
	if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot: %v", err)
	}
	recs := s.Plans()
	if len(recs) != 1 {
		t.Fatalf("got %d plan records, want 1", len(recs))
	}
	canonical, err := hex.DecodeString(recs[0].Canonical)
	if err != nil {
		t.Fatalf("decoding canonical hex: %v", err)
	}
	digest := core.DigestOf(canonical)
	base := s.instances[0].current.Load()
	if base == nil {
		t.Fatalf("no plan serving after advance")
	}
	swaps := make([]int64, instances)
	rejects := make([]int64, instances)
	for i, in := range s.instances {
		swaps[i], rejects[i] = in.swaps.Value(), in.rejects.Value()
	}
	planRejects := reg.Counter("server.plan.rejects").Value()
	events := len(tracer.Events())

	corrupt := append([]byte(nil), canonical...)
	corrupt[len(corrupt)/2] ^= 0x40
	truncated := canonical[:len(canonical)-3]
	refused := []struct {
		name      string
		canonical []byte
		digest    uint64
	}{
		{"digest mismatch", canonical, digest + 1},
		{"flipped byte under its own digest", corrupt, core.DigestOf(corrupt)},
		{"truncation under its own digest", truncated, core.DigestOf(truncated)},
	}
	for _, tc := range refused {
		if err := s.publish(99, 9, tc.canonical, tc.digest); err == nil {
			t.Errorf("publish accepted a %s", tc.name)
		}
	}
	for i, in := range s.instances {
		if got := in.current.Load(); got != base {
			t.Errorf("frontend %d: a refused publish replaced the serving plan", i)
		}
		if got := in.rejects.Value() - rejects[i]; got != int64(len(refused)) {
			t.Errorf("frontend %d: plan_rejects grew by %d, want %d", i, got, len(refused))
		}
	}
	if got := reg.Counter("server.plan.rejects").Value() - planRejects; got != int64(len(refused)) {
		t.Errorf("server.plan.rejects grew by %d, want %d", got, len(refused))
	}
	evs := tracer.Events()[events:]
	if len(evs) != len(refused) {
		t.Fatalf("%d events for %d refused epochs, want one each: %+v", len(evs), len(refused), evs)
	}
	for _, ev := range evs {
		if ev.Type != "swap-reject" || ev.Slot != 9 || !hasAttr(ev, "instances", instances) || !hasAttr(ev, "epoch", 99) {
			t.Errorf("event %+v, want swap-reject for slot 9, epoch 99 on %d instances", ev, instances)
		}
	}

	// The genuine bytes install fine at a new epoch, on every frontend,
	// as one table.
	if err := s.publish(base.epoch+1, 9, canonical, digest); err != nil {
		t.Errorf("publish refused genuine plan bytes: %v", err)
	}
	next := s.instances[0].current.Load()
	if next.epoch != base.epoch+1 {
		t.Errorf("serving epoch %d after publish, want %d", next.epoch, base.epoch+1)
	}
	for i, in := range s.instances {
		if got := in.swaps.Value() - swaps[i]; got != 1 {
			t.Errorf("frontend %d: swaps grew by %d, want 1", i, got)
		}
		if in.current.Load() != next {
			t.Errorf("frontend %d serves a different table than frontend 0", i)
		}
	}
}

// hasAttr reports whether ev carries the integer attribute key = v.
func hasAttr(ev obs.Event, key string, v int64) bool {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Int == v
		}
	}
	return false
}

// TestMultiInstanceIngestRouting pins the ring routing: a request may
// arrive at any frontend, but its demand is accumulated at the
// ring-designated owner, with cross-instance arrivals counted as
// forwards.
func TestMultiInstanceIngestRouting(t *testing.T) {
	reg := obs.NewRegistry()
	const instances, hotspots = 4, 16
	s := newTestServer(t, Config{World: testWorld(hotspots, 10, 10), Registry: reg, Instances: instances})

	// Post every hotspot's request to frontend 0.
	for h := 0; h < hotspots; h++ {
		rr := doAt(t, s, 0, http.MethodPost, "/ingest", fmt.Sprintf(`{"user":1,"video":0,"hotspot":%d}`, h))
		if rr.Code != http.StatusAccepted {
			t.Fatalf("hotspot %d: status %d", h, rr.Code)
		}
	}

	// Demand must sit in the ring owner's accumulator.
	wantPerInstance := make([]int64, instances)
	var wantForwarded int64
	for h := 0; h < hotspots; h++ {
		owner := s.ring.OwnerOfHotspot(h)
		wantPerInstance[owner]++
		if owner != 0 {
			wantForwarded++
		}
	}
	if wantForwarded == 0 {
		t.Fatalf("ring assigned all %d hotspots to instance 0 — test world too small", hotspots)
	}
	for i, in := range s.instances {
		d, n := in.handOver(1)
		if n != wantPerInstance[i] {
			t.Errorf("instance %d holds %d requests, want %d", i, n, wantPerInstance[i])
		}
		if in.accepted.Value() != wantPerInstance[i] {
			t.Errorf("instance %d accepted counter %d, want %d", i, in.accepted.Value(), wantPerInstance[i])
		}
		if d == nil {
			continue
		}
		for h, total := range d.Totals {
			if got := s.ring.OwnerOfHotspot(h); total != 0 && got != i {
				t.Errorf("hotspot %d accumulated at instance %d, ring owner is %d", h, i, got)
			}
		}
	}
	if got := s.instances[0].forwarded.Value(); got != wantForwarded {
		t.Errorf("instance 0 forwarded %d, want %d", got, wantForwarded)
	}
	if got := reg.Counter("server.ingest.accepted").Value(); got != hotspots {
		t.Errorf("accepted %d, want %d", got, hotspots)
	}
}

// TestMultiInstancePlanFanout drives one scheduled slot on a
// three-frontend tier and checks every frontend swapped in the exact
// same (epoch, digest) — the fan-out path end to end, socketless.
func TestMultiInstancePlanFanout(t *testing.T) {
	reg := obs.NewRegistry()
	const instances = 3
	s := newTestServer(t, Config{World: testWorld(6, 10, 10), Registry: reg, Instances: instances, QueueBound: 1 << 16})
	s.wg.Add(1)
	go s.recomputeLoop()
	defer func() {
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
	}()

	// Spread ingest across all frontends.
	for i := 0; i < 30; i++ {
		rr := doAt(t, s, i%instances, http.MethodPost, "/ingest", fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%9, i%6))
		if rr.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, rr.Code)
		}
	}
	if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
		t.Fatalf("AdvanceSlot: %v", err)
	}

	epoch0, digest0 := s.InstanceEpochDigest(0)
	if epoch0 != 1 || digest0 == "" {
		t.Fatalf("instance 0 serving (epoch %d, digest %q), want epoch 1", epoch0, digest0)
	}
	recs := s.Plans()
	if len(recs) != 1 || recs[0].Digest != digest0 {
		t.Fatalf("plan record digest %q, instance 0 serving %q", recs[0].Digest, digest0)
	}
	for i := 1; i < instances; i++ {
		epoch, digest := s.InstanceEpochDigest(i)
		if epoch != epoch0 || digest != digest0 {
			t.Errorf("instance %d serving (epoch %d, %s), instance 0 (epoch %d, %s)",
				i, epoch, digest, epoch0, digest0)
		}
	}
	for i, in := range s.instances {
		if in.current.Load() != s.instances[0].current.Load() {
			t.Errorf("instance %d serves a different table than instance 0", i)
		}
		if got := in.swaps.Value(); got != 1 {
			t.Errorf("instance %d swaps %d, want 1", i, got)
		}
		if got := in.rejects.Value(); got != 0 {
			t.Errorf("instance %d plan_rejects %d, want 0", i, got)
		}
	}
	// Every frontend answers redirect lookups with the same digest.
	for i := 0; i < instances; i++ {
		rr := doAt(t, s, i, http.MethodGet, "/redirect?video=0&hotspot=0", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("instance %d redirect: status %d", i, rr.Code)
		}
		if !strings.Contains(rr.Body.String(), `"digest":"`+digest0+`"`) {
			t.Errorf("instance %d redirect reply %s lacks serving digest %s", i, rr.Body.String(), digest0)
		}
	}
}
