package loadgen_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
)

// openLoopWorld is a small uniform world for driver tests.
func openLoopWorld(m int) *trace.World {
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: float64(m), MaxY: 1},
		NumVideos:     120,
		CDNDistanceKm: 20,
	}
	for h := 0; h < m; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h), Y: 0},
			ServiceCapacity: 50,
			CacheCapacity:   20,
		})
	}
	return w
}

// TestDriveOpenLoop drives a generated open-loop stream through a
// two-frontend serving tier over real HTTP: every generated request is
// accepted, every non-empty slot schedules, and both frontends see
// ingest traffic.
func TestDriveOpenLoop(t *testing.T) {
	spec, err := loadgen.ParseSpec(`
class steady clients=10 arrival=poisson rate=30 videos=zipf:1.0
class bursty clients=5  arrival=gamma   rate=20 shape=0.5
`)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	world := openLoopWorld(8)
	stream, err := spec.Generate(3, 4, 0.5, len(world.Hotspots), world.NumVideos)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stream.Total == 0 {
		t.Fatal("empty stream")
	}

	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		World:      world,
		Registry:   reg,
		Instances:  2,
		QueueBound: 1 << 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	targets := make([]string, srv.NumInstances())
	for i := range targets {
		targets[i] = "http://" + srv.InstanceAddr(i)
	}
	report, err := loadgen.DriveOpenLoop(targets[0], stream, loadgen.Options{Targets: targets})
	if err != nil {
		t.Fatalf("DriveOpenLoop: %v", err)
	}
	if report.Accepted != int64(stream.Total) || report.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d of %d generated", report.Accepted, report.Rejected, stream.Total)
	}
	for _, sr := range report.Slots {
		if sr.Sent > 0 && !sr.Scheduled {
			t.Errorf("slot %d: %d requests sent but not scheduled", sr.Slot, sr.Sent)
		}
	}
	for i := 0; i < 2; i++ {
		epoch, digest := srv.InstanceEpochDigest(i)
		if epoch == 0 || digest == "" {
			t.Errorf("instance %d never installed a plan", i)
		}
	}
	if reg.Counter("server.shard.0.lookups").Value() != 0 {
		t.Error("driver should not have issued lookups")
	}
}

// TestDriveOpenLoopErrorPaths drives the loop against stub
// servers that reject, error, and garble the protocol, covering the
// 429 accounting and both failure branches.
func TestDriveOpenLoopErrorPaths(t *testing.T) {
	stream := &loadgen.Stream{
		Slots: [][]loadgen.GenRequest{{
			{User: 0, Video: 1, Hotspot: 0},
			{User: 1, Video: 2, Hotspot: 1},
		}},
		Total: 2,
	}

	t.Run("ingest server error", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}))
		defer srv.Close()
		_, err := loadgen.DriveOpenLoop(srv.URL, stream, loadgen.Options{})
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
		report, err := loadgen.DriveOpenLoop(srv.URL, stream, loadgen.Options{})
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
		_, err := loadgen.DriveOpenLoop(srv.URL, stream, loadgen.Options{})
		if err == nil || !strings.Contains(err.Error(), "advance status 502") {
			t.Fatalf("err = %v, want advance status 502", err)
		}
	})
}
