package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	crowdcdn "repro"
)

// TestSmoke runs the full -smoke path: boot on an ephemeral port,
// replay a generated trace over real HTTP, verify, shut down.
func TestSmoke(t *testing.T) {
	if err := run([]string{"-smoke", "-seed", "3"}); err != nil {
		t.Fatalf("run -smoke: %v", err)
	}
}

// TestServeModeShutdown boots the real serve loop (ephemeral port,
// timed slots, debug server) and delivers SIGTERM to the process; run
// must drain and return cleanly.
func TestServeModeShutdown(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-slot", "50ms", "-seed", "2"})
	}()
	// Give the server time to boot and tick at least once, then ask it
	// to shut down the way a supervisor would.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop did not shut down on SIGTERM")
	}
}

// TestDebugEventsCarrySwaps boots serve mode with a debug server and
// manual slots, schedules one slot over HTTP, and reads that slot's
// swap event back from /debug/events: the tier and the debug server
// share one tracer.
func TestDebugEventsCarrySwaps(t *testing.T) {
	world, err := loadWorld("", 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, dbg, dbgAddr, err := serve(crowdcdn.ServerConfig{World: world, Addr: "127.0.0.1:0"}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	defer srv.Close()

	base := "http://" + srv.Addr()
	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/ingest", `{"user":1,"video":5,"hotspot":2}`, http.StatusAccepted)
	post("/admin/advance", "", http.StatusOK)

	resp, err := http.Get("http://" + dbgAddr + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev struct {
			Type  string `json:"type"`
			Slot  int    `json:"slot"`
			Epoch int64  `json:"epoch"`
		}
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Type == "swap" && ev.Slot == 0 && ev.Epoch == 1 {
			return
		}
	}
	t.Fatalf("/debug/events holds no swap event for slot 0 after one scheduled slot:\n%s", body)
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// The lock stripes and their knob are gone.
	if err := run([]string{"-smoke", "-shards", "4"}); err == nil {
		t.Fatal("-shards accepted")
	}
	// So is delta scheduling.
	for _, flag := range []string{"-delta", "-delta-every"} {
		err := run([]string{"-smoke", flag, "2"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err = %v, want an undefined flag", flag, err)
		}
	}
	if err := run([]string{"-world", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing world file accepted")
	}
}

func TestLoadWorldFromFile(t *testing.T) {
	world, _, err := crowdcdn.Generate(smokeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := crowdcdn.WriteWorld(f, world); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadWorld(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hotspots) != len(world.Hotspots) || got.NumVideos != world.NumVideos {
		t.Fatalf("loaded world %d hotspots / %d videos, want %d / %d",
			len(got.Hotspots), got.NumVideos, len(world.Hotspots), world.NumVideos)
	}
}

// TestCrashSmoke runs the -smoke -wal-dir path: kill the tier abruptly
// mid-slot, restart from the on-disk WAL, and require byte-identity
// with the offline simulation.
func TestCrashSmoke(t *testing.T) {
	args := []string{"-smoke", "-wal-dir", t.TempDir(), "-fsync", "always", "-checkpoint-every", "2", "-seed", "4"}
	if err := run(args); err != nil {
		t.Fatalf("run -smoke -wal-dir: %v", err)
	}
}

// TestSmokeMultiInstance is the multi-instance smoke: owner-sharded
// ingestion across three frontends, plus the generated-workload phase
// held to the offline plans.
func TestSmokeMultiInstance(t *testing.T) {
	if err := run([]string{"-smoke", "-instances", "3", "-seed", "3"}); err != nil {
		t.Fatalf("run -smoke -instances 3: %v", err)
	}
}
