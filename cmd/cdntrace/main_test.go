package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	crowdcdn "repro"
)

func TestRunGeneratesFiles(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-preset", "eval",
		"-hotspots", "20", "-videos", "500", "-users", "400",
		"-requests", "600", "-slots", "2",
		"-out", dir,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	wf, err := os.Open(filepath.Join(dir, "world.json"))
	if err != nil {
		t.Fatalf("world.json missing: %v", err)
	}
	defer wf.Close()
	world, err := crowdcdn.ReadWorld(wf)
	if err != nil {
		t.Fatalf("world.json unreadable: %v", err)
	}
	if len(world.Hotspots) != 20 || world.NumVideos != 500 {
		t.Errorf("world = %d hotspots / %d videos, want 20 / 500",
			len(world.Hotspots), world.NumVideos)
	}

	tf, err := os.Open(filepath.Join(dir, "requests.csv"))
	if err != nil {
		t.Fatalf("requests.csv missing: %v", err)
	}
	defer tf.Close()
	tr, err := crowdcdn.ReadRequests(tf)
	if err != nil {
		t.Fatalf("requests.csv unreadable: %v", err)
	}
	if len(tr.Requests) != 600 || tr.Slots != 2 {
		t.Errorf("trace = %d requests / %d slots, want 600 / 2", len(tr.Requests), tr.Slots)
	}
	if err := tr.Validate(world); err != nil {
		t.Errorf("generated files inconsistent: %v", err)
	}
}

func TestRunMeasurementPreset(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-preset", "measurement",
		"-hotspots", "30", "-videos", "500", "-users", "400", "-requests", "500",
		"-out", dir,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-preset", "bogus"}); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	// A negative count is refused, not replaced by the preset's.
	for _, flag := range []string{"-hotspots", "-videos", "-users", "-requests", "-slots"} {
		err := run([]string{flag, "-5", "-out", t.TempDir()})
		if err == nil || !strings.Contains(err.Error(), flag+" -5: must be non-negative") {
			t.Errorf("%s -5: err = %v, want it refused", flag, err)
		}
	}
}
