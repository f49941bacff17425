package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
)

// e2eWorldAndTrace generates a small but non-trivial deployment: a few
// regions, enough demand per slot that RBCAer actually redirects and
// places content, several slots.
func e2eWorldAndTrace(t *testing.T) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 7
	cfg.NumHotspots = 24
	cfg.NumVideos = 600
	cfg.NumUsers = 800
	cfg.NumRequests = 3000
	cfg.Slots = 6
	cfg.NumRegions = 4
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// TestServerMatchesOfflineSim is the byte-identity certification:
// replaying a fixed trace through the live server (real HTTP, real
// concurrent ingest) must yield per-slot plans byte-identical to the
// plans sim.Run computes for the same trace offline. This pins down
// the whole online pipeline — nearest-hotspot resolution, demand
// accumulation, capacity inputs, and ScheduleRound determinism.
func TestServerMatchesOfflineSim(t *testing.T) {
	world, tr := e2eWorldAndTrace(t)

	// Offline reference: collect every slot's canonical plan bytes.
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	if len(offline) == 0 {
		t.Fatalf("offline run produced no plans")
	}

	// Online replay over real HTTP.
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		World:       world,
		Registry:    reg,
		PlanHistory: tr.Slots + 1,
		QueueBound:  1 << 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	report, err := loadgen.Replay("http://"+srv.Addr(), world, tr, loadgen.Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if report.Rejected != 0 {
		t.Fatalf("%d requests rejected — QueueBound too small for byte-identity", report.Rejected)
	}
	if report.Accepted != int64(len(tr.Requests)) {
		t.Fatalf("accepted %d of %d requests", report.Accepted, len(tr.Requests))
	}

	online := make(map[int]string)
	for _, rec := range srv.Plans() {
		online[rec.Slot] = rec.Canonical
	}
	if len(online) != len(offline) {
		t.Fatalf("online scheduled %d slots, offline %d", len(online), len(offline))
	}
	for slot, want := range offline {
		got, ok := online[slot]
		if !ok {
			t.Errorf("slot %d: no online plan", slot)
			continue
		}
		if got != want {
			t.Errorf("slot %d: online plan differs from offline (%d vs %d hex bytes)",
				slot, len(got), len(want))
		}
	}

	// The digests the replay saw at each advance match the server's own
	// plan records — the loadgen report is a faithful view of what was
	// served.
	digests := make(map[int]string)
	for _, rec := range srv.Plans() {
		digests[rec.Slot] = rec.Digest
	}
	for _, sr := range report.Slots {
		if !sr.Scheduled {
			t.Errorf("slot %d not scheduled (sent %d)", sr.Slot, sr.Sent)
			continue
		}
		if sr.Digest != digests[sr.Slot] {
			t.Errorf("slot %d: advance digest %s, plan record digest %s", sr.Slot, sr.Digest, digests[sr.Slot])
		}
	}
}

// TestMultiInstanceServerMatchesOfflineSim is the scaled-out
// byte-identity certification: a four-frontend serving tier (real HTTP,
// ingest rotated across every frontend, owner-sharded accumulation,
// digest-verified plan fan-out) must serve per-slot plans byte-identical
// to sim.Run's offline plans for the same trace, with every frontend on
// the exact same (epoch, digest) after each swap.
func TestMultiInstanceServerMatchesOfflineSim(t *testing.T) {
	world, tr := e2eWorldAndTrace(t)

	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}

	const instances = 4
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		World:       world,
		Registry:    reg,
		Instances:   instances,
		PlanHistory: tr.Slots + 1,
		QueueBound:  1 << 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	targets := make([]string, instances)
	for i := 0; i < instances; i++ {
		addr := srv.InstanceAddr(i)
		if addr == "" {
			t.Fatalf("instance %d has no listen address", i)
		}
		targets[i] = "http://" + addr
	}
	report, err := loadgen.Replay(targets[0], world, tr, loadgen.Options{Targets: targets})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if report.Rejected != 0 {
		t.Fatalf("%d requests rejected — QueueBound too small for byte-identity", report.Rejected)
	}
	if report.Accepted != int64(len(tr.Requests)) {
		t.Fatalf("accepted %d of %d requests", report.Accepted, len(tr.Requests))
	}

	// Byte identity against the offline simulator.
	online := make(map[int]string)
	epochs := 0
	for _, rec := range srv.Plans() {
		online[rec.Slot] = rec.Canonical
		epochs++
	}
	if len(online) != len(offline) {
		t.Fatalf("online scheduled %d slots, offline %d", len(online), len(offline))
	}
	for slot, want := range offline {
		if online[slot] != want {
			t.Errorf("slot %d: multi-instance plan differs from offline", slot)
		}
	}

	// Every frontend installed every epoch's exact plan: the swap counter
	// only advances when publish verified the epoch's bytes against
	// their digest, so swaps == epochs with zero rejects proves each
	// epoch's fan-out delivered the identical plan to all frontends.
	for i := 0; i < instances; i++ {
		pfx := "server.shard." + strconv.Itoa(i) + "."
		if got := reg.Counter(pfx + "swaps").Value(); got != int64(epochs) {
			t.Errorf("instance %d: %d verified swaps, want %d", i, got, epochs)
		}
		if got := reg.Counter(pfx + "plan_rejects").Value(); got != 0 {
			t.Errorf("instance %d: %d plan rejects, want 0", i, got)
		}
	}
	if got := reg.Counter("server.plan.rejects").Value(); got != 0 {
		t.Errorf("scheduler counted %d fan-out rejects, want 0", got)
	}

	// And over real HTTP, every frontend reports the same serving
	// (epoch, digest) in /healthz.
	last := srv.Plans()[len(srv.Plans())-1]
	for i := 0; i < instances; i++ {
		resp, err := http.Get(targets[i] + "/healthz")
		if err != nil {
			t.Fatalf("healthz %d: %v", i, err)
		}
		var hz struct {
			Instance     int    `json:"instance"`
			Instances    int    `json:"instances"`
			ServingEpoch int64  `json:"serving_epoch"`
			Digest       string `json:"digest"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatalf("healthz %d: decoding: %v", i, err)
		}
		resp.Body.Close()
		if hz.Instance != i || hz.Instances != instances {
			t.Errorf("healthz %d: reports instance %d of %d", i, hz.Instance, hz.Instances)
		}
		if hz.ServingEpoch != last.Epoch || hz.Digest != last.Digest {
			t.Errorf("healthz %d: serving (epoch %d, %s), want (epoch %d, %s)",
				i, hz.ServingEpoch, hz.Digest, last.Epoch, last.Digest)
		}
	}

	// Demand really was sharded: more than one instance accumulated.
	busy := 0
	for i := 0; i < instances; i++ {
		if reg.Counter("server.shard."+strconv.Itoa(i)+".accepted").Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of %d instances accumulated demand — ingest sharding inert", busy, instances)
	}
}

// TestReplayByHotspot holds the {"hotspot":h} ingest form to the same
// byte-identity bar: a trace whose requests the client resolves to
// their nearest hotspot before posting must yield the offline plans.
func TestReplayByHotspot(t *testing.T) {
	replayByHotspot(t, func(int) bool { return true })
}

// TestReplayByHotspotMode mixes the two ingest forms within every slot
// — even requests carry their location, odd ones their resolved
// hotspot — so both must land in one demand table: every request is
// answered 202 and the plans still match offline byte for byte.
func TestReplayByHotspotMode(t *testing.T) {
	replayByHotspot(t, func(i int) bool { return i%2 == 1 })
}

// replayByHotspot posts tr over HTTP, the i-th request of each slot as
// {"hotspot":h} when byHotspot(i) and as {"x":…,"y":…} otherwise, and
// checks the server's plans against the offline ones.
func replayByHotspot(t *testing.T, byHotspot func(i int) bool) {
	t.Helper()
	world, tr := e2eWorldAndTrace(t)

	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{
		World:       world,
		PlanHistory: tr.Slots + 1,
		QueueBound:  1 << 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	base := "http://" + srv.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	post := func(path string, body []byte, want int) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s %s: status %d, want %d", path, body, resp.StatusCode, want)
		}
	}
	type ingestBody struct {
		User    int64    `json:"user"`
		Video   int64    `json:"video"`
		Hotspot *int     `json:"hotspot,omitempty"`
		X       *float64 `json:"x,omitempty"`
		Y       *float64 `json:"y,omitempty"`
	}
	for _, reqs := range tr.BySlot() {
		for i, q := range reqs {
			body := ingestBody{User: int64(q.User), Video: int64(q.Video)}
			if byHotspot(i) {
				h, _, ok := index.Nearest(q.Location)
				if !ok {
					t.Fatalf("no hotspot for request %d", q.ID)
				}
				body.Hotspot = &h
			} else {
				body.X, body.Y = &q.Location.X, &q.Location.Y
			}
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			post("/ingest", data, http.StatusAccepted)
		}
		post("/admin/advance", nil, http.StatusOK)
	}
	plans := srv.Plans()
	if len(plans) != len(offline) {
		t.Fatalf("online scheduled %d slots, offline %d", len(plans), len(offline))
	}
	for _, rec := range plans {
		if offline[rec.Slot] != rec.Canonical {
			t.Errorf("slot %d: by-hotspot ingest diverged from offline plan", rec.Slot)
		}
	}
}
