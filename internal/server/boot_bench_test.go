package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// bootWorld is the serving benchmark's deployment at fleet times the
// paper's (310 hotspots, 17×11 km, 14 demand regions, 30,000 users per
// fleet unit; the catalogue stays 15,190 videos), with four uniform
// slots of slotRequests each at 0.90 of the fleet's service capacity.
func bootWorld(tb testing.TB, fleet, slotRequests int) (*trace.World, [][]trace.Request) {
	tb.Helper()
	const (
		paperLoad         = 212472.0 / (310 * 760)
		paperCachePerUnit = 450.0 / 760
	)
	cfg := trace.DefaultConfig()
	side := 1.0
	for side*side < float64(fleet) {
		side++
	}
	cfg.Bounds = geo.Rect{MaxX: cfg.Bounds.MaxX * side, MaxY: cfg.Bounds.MaxY * side}
	cfg.NumHotspots *= fleet
	cfg.NumRegions *= fleet
	cfg.NumUsers *= fleet
	cfg.Slots = 4
	cfg.NumRequests = cfg.Slots * slotRequests
	cfg.SlotNoise = 1
	perHotspot := float64(slotRequests) / (paperLoad * float64(cfg.NumHotspots))
	cfg.ServiceCapacityFrac = perHotspot / float64(cfg.NumVideos)
	cfg.CacheCapacityFrac = cfg.ServiceCapacityFrac * paperCachePerUnit
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return world, tr.BySlot()
}

// crashedBootDir leaves in a fresh directory what the serving
// benchmark's restart drill boots from: a server with a WAL that
// checkpoints every two slots is fed three slots, each closed with
// AdvanceSlot — so a checkpoint lands after the second — and half a
// slot more, and is killed once the log is durable. It returns the
// config to boot it with and the epoch of the last durable plan.
func crashedBootDir(tb testing.TB, world *trace.World, bySlot [][]trace.Request) (server.Config, int64) {
	tb.Helper()
	cfg := server.Config{
		World:           world,
		QueueBound:      1 << 30,
		PlanHistory:     1 << 20,
		WALDir:          tb.TempDir(),
		Fsync:           "interval",
		FsyncInterval:   10 * time.Millisecond,
		CheckpointEvery: 2,
	}
	cfg.Registry = obs.NewRegistry()
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	h := srv.InstanceHandler(0)
	feed := func(reqs []trace.Request) {
		for _, q := range reqs {
			body := `{"user":` + strconv.Itoa(int(q.User)) + `,"video":` + strconv.Itoa(int(q.Video)) +
				`,"x":` + strconv.FormatFloat(q.Location.X, 'g', -1, 64) +
				`,"y":` + strconv.FormatFloat(q.Location.Y, 'g', -1, 64) + `}`
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
			if rr.Code != http.StatusAccepted {
				srv.Kill()
				tb.Fatalf("ingest: status %d %s", rr.Code, rr.Body)
			}
		}
	}
	var epoch int64
	for k := 0; k < 3; k++ {
		feed(bySlot[k])
		_, rec, err := srv.AdvanceSlot(context.Background())
		if err != nil {
			srv.Kill()
			tb.Fatal(err)
		}
		epoch = rec.Epoch
	}
	feed(bySlot[3][:len(bySlot[3])/2])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(cfg.FsyncInterval) {
		if time.Now().After(deadline) {
			srv.Kill()
			tb.Fatal("the WAL did not become durable")
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var health struct {
			WAL struct {
				Appended uint64 `json:"appended_lsn"`
				Durable  uint64 `json:"durable_lsn"`
			} `json:"wal"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
			srv.Kill()
			tb.Fatal(err)
		}
		if health.WAL.Appended > 0 && health.WAL.Durable == health.WAL.Appended {
			break
		}
	}
	srv.Kill()
	return cfg, epoch
}

// bootStages are the registry counters a boot publishes its stages'
// times in, and the metric each is reported as (ms a boot). The stages
// overlap, so they do not sum to ms/boot.
var bootStages = []struct{ counter, metric string }{
	{"wal.recover_us", "recover_ms/boot"},
	{"wal.recover_plan_verify_us", "plan_verify_ms/boot"},
	{"server.boot.index_us", "index_ms/boot"},
	{"server.boot.pending_fold_us", "pending_fold_ms/boot"},
	{"server.boot.install_us", "install_ms/boot"},
}

// BenchmarkServerBoot times a reboot — server.New and Start — on the
// restart drill's crashed WAL directory (crashedBootDir) at 310 and
// 1,240 hotspots with the serving benchmark's slot loads: the boot's
// own share of restart_ms, which adds the first /redirect over a fresh
// connection. Every boot must recover the last durable plan; each one
// is killed, untimed, so the next recovers the same directory. Beside
// ms/boot it reports each stage's own time (bootStages). Run it at
// -cpu 1,2: a boot runs its independent stages side by side.
func BenchmarkServerBoot(b *testing.B) {
	for _, bc := range []struct {
		fleet, slotRequests int
	}{{1, 25000}, {4, 50000}} {
		b.Run(fmt.Sprintf("m%d", 310*bc.fleet), func(b *testing.B) {
			world, bySlot := bootWorld(b, bc.fleet, bc.slotRequests)
			cfg, epoch := crashedBootDir(b, world, bySlot)
			runtime.GC() // the set-up's garbage is not the boots' to collect
			stages := make([]int64, len(bootStages))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Registry = obs.NewRegistry()
				srv, err := server.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Start(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got, _ := srv.InstanceEpochDigest(0); got != epoch {
					b.Fatalf("booted serving epoch %d, want %d", got, epoch)
				}
				for k, st := range bootStages {
					stages[k] += cfg.Registry.Counter(st.counter).Value()
				}
				srv.Kill()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/boot")
			for k, st := range bootStages {
				b.ReportMetric(float64(stages[k])/1e3/float64(b.N), st.metric)
			}
		})
	}
}
