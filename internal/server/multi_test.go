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

// TestInstallVerification pins the receive side of the plan-distribution
// channel: an instance only swaps a plan whose bytes hash to the
// advertised digest, parse, and re-encode to the identical bytes. Every
// corruption is rejected loudly and leaves the previous plan serving.
func TestInstallVerification(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{World: testWorld(4, 10, 10), Registry: reg, QueueBound: 1 << 16})
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
	in := s.instances[0]
	base := in.current.Load()
	if base == nil {
		t.Fatalf("no plan serving after advance")
	}
	swaps, rejects := in.swaps.Value(), in.rejects.Value()

	// Digest mismatch: advertised digest does not match the bytes.
	if err := in.install(99, 9, canonical, digest+1); err == nil {
		t.Error("install accepted a digest mismatch")
	}
	// Corrupted bytes with a matching (recomputed) digest: the parse or
	// round-trip must catch it.
	corrupt := append([]byte(nil), canonical...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := in.install(99, 9, corrupt, core.DigestOf(corrupt)); err == nil {
		t.Error("install accepted corrupted plan bytes")
	}
	// Truncated bytes.
	if err := in.install(99, 9, canonical[:len(canonical)-3], core.DigestOf(canonical[:len(canonical)-3])); err == nil {
		t.Error("install accepted truncated plan bytes")
	}
	if got := in.current.Load(); got != base {
		t.Error("a rejected install replaced the serving plan")
	}
	if got := in.rejects.Value() - rejects; got != 3 {
		t.Errorf("plan_rejects grew by %d, want 3", got)
	}

	// The genuine bytes install fine at a new epoch.
	if err := in.install(base.epoch+1, 9, canonical, digest); err != nil {
		t.Errorf("install rejected genuine plan bytes: %v", err)
	}
	if got := in.swaps.Value() - swaps; got != 1 {
		t.Errorf("swaps grew by %d, want 1", got)
	}
	if got := in.current.Load(); got.epoch != base.epoch+1 {
		t.Errorf("serving epoch %d after install, want %d", got.epoch, base.epoch+1)
	}
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
