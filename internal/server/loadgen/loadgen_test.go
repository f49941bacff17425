package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/trace"
)

// replayWorld is a 4-hotspot line world with a 3-slot trace hitting
// every hotspot.
func replayWorld(t *testing.T) (*trace.World, *trace.Trace) {
	t.Helper()
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: 4, MaxY: 1},
		NumVideos:     50,
		CDNDistanceKm: 20,
	}
	for h := 0; h < 4; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h), Y: 0},
			ServiceCapacity: 40,
			CacheCapacity:   20,
		})
	}
	tr := &trace.Trace{Slots: 3}
	id := 0
	for slot := 0; slot < 3; slot++ {
		for h := 0; h < 4; h++ {
			for v := 0; v < 5; v++ {
				tr.Requests = append(tr.Requests, trace.Request{
					ID:       id,
					User:     trace.UserID(id % 7),
					Video:    trace.VideoID((h*5 + v) % w.NumVideos),
					Location: geo.Point{X: float64(h) + 0.1, Y: 0.1},
					Slot:     slot,
				})
				id++
			}
		}
	}
	return w, tr
}

func startServer(t *testing.T, world *trace.World) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{World: world, PlanHistory: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestReplay(t *testing.T) {
	world, tr := replayWorld(t)
	srv := startServer(t, world)
	report, err := Replay("http://"+srv.Addr(), world, tr, Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if report.Sent != len(tr.Requests) || report.Accepted != int64(len(tr.Requests)) || report.Rejected != 0 {
		t.Fatalf("report %+v, want %d sent/accepted", report, len(tr.Requests))
	}
	if len(report.Slots) != tr.Slots {
		t.Fatalf("%d slot reports, want %d", len(report.Slots), tr.Slots)
	}
	for _, sr := range report.Slots {
		if !sr.Scheduled || sr.Epoch == 0 || sr.Digest == "" {
			t.Errorf("slot %d not scheduled: %+v", sr.Slot, sr)
		}
	}
	if len(srv.Plans()) != tr.Slots {
		t.Fatalf("server retained %d plans, want %d", len(srv.Plans()), tr.Slots)
	}
}

func TestReplayInvalidTrace(t *testing.T) {
	world, tr := replayWorld(t)
	tr.Requests[0].Video = trace.VideoID(world.NumVideos)
	if _, err := Replay("http://127.0.0.1:0", world, tr, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestReplayUnreachableServer(t *testing.T) {
	world, tr := replayWorld(t)
	_, err := Replay("http://127.0.0.1:1", world, tr, Options{})
	if err == nil || !strings.Contains(err.Error(), "loadgen") {
		t.Fatalf("unreachable server: err = %v", err)
	}
}

// TestReplayCountsRejections bounds the queue so part of a slot is
// rejected with 429; Replay must report the split, not fail.
func TestReplayCountsRejections(t *testing.T) {
	world, tr := replayWorld(t)
	srv, err := server.New(server.Config{World: world, QueueBound: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	report, err := Replay("http://"+srv.Addr(), world, tr, Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if report.Rejected == 0 {
		t.Fatalf("expected rejections with QueueBound 7, report %+v", report)
	}
	if report.Accepted+report.Rejected != int64(report.Sent) {
		t.Fatalf("accepted %d + rejected %d != sent %d", report.Accepted, report.Rejected, report.Sent)
	}
}

// TestReplayMatchesOffline: a replay through a two-frontend tier is
// held to its reference — every scheduled slot serves the digest of
// OfflinePlans' plan for it — and the check bites.
func TestReplayMatchesOffline(t *testing.T) {
	world, tr := replayWorld(t)
	offline, err := OfflinePlans(world, tr)
	if err != nil {
		t.Fatalf("OfflinePlans: %v", err)
	}
	if len(offline) == 0 {
		t.Fatal("offline run planned no slot")
	}

	srv, err := server.New(server.Config{World: world, Instances: 2, QueueBound: 1 << 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	targets := []string{"http://" + srv.InstanceAddr(0), "http://" + srv.InstanceAddr(1)}
	report, err := Replay(targets[0], world, tr, Options{Targets: targets})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if report.Accepted != int64(len(tr.Requests)) || report.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d of %d sent", report.Accepted, report.Rejected, len(tr.Requests))
	}
	if err := MatchOffline(report, offline); err != nil {
		t.Fatal(err)
	}

	// The check bites: a slot served under another digest fails it.
	for i := range report.Slots {
		if report.Slots[i].Scheduled {
			report.Slots[i].Digest = "0000000000000000"
			break
		}
	}
	if err := MatchOffline(report, offline); err == nil || !strings.Contains(err.Error(), "served digest") {
		t.Fatalf("MatchOffline on a wrong digest = %v", err)
	}
}

// TestReplayErrorPaths replays against stub servers that reject, error
// and garble the protocol, covering the 429 accounting and both
// failure branches.
func TestReplayErrorPaths(t *testing.T) {
	world, _ := replayWorld(t)
	tr := &trace.Trace{Slots: 1, Requests: []trace.Request{
		{ID: 0, User: 0, Video: 1, Location: world.Hotspots[0].Location},
		{ID: 1, User: 1, Video: 2, Location: world.Hotspots[1].Location},
	}}

	t.Run("ingest server error", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}))
		defer srv.Close()
		_, err := Replay(srv.URL, world, tr, Options{})
		if err == nil || !strings.Contains(err.Error(), "ingest status 500") {
			t.Fatalf("err = %v, want ingest status 500", err)
		}
	})

	t.Run("rejections counted, advance garbled", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" {
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			w.Write([]byte("{not json"))
		}))
		defer srv.Close()
		report, err := Replay(srv.URL, world, tr, Options{})
		if err == nil || !strings.Contains(err.Error(), "decoding advance reply") {
			t.Fatalf("err = %v, want advance decode failure", err)
		}
		if report.Rejected != 2 {
			t.Fatalf("Rejected = %d, want 2", report.Rejected)
		}
	})

	t.Run("advance server error", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" {
				w.WriteHeader(http.StatusAccepted)
				return
			}
			w.WriteHeader(http.StatusBadGateway)
		}))
		defer srv.Close()
		_, err := Replay(srv.URL, world, tr, Options{})
		if err == nil || !strings.Contains(err.Error(), "advance status 502") {
			t.Fatalf("err = %v, want advance status 502", err)
		}
	})
}
