package loadgen

import (
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
