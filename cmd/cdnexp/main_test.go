package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	crowdcdn "repro"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "fig9"}, io.Discard); err != nil {
		t.Fatalf("run(fig9): %v", err)
	}
}

func TestRunExtensionExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "abl-theta"}, io.Discard); err != nil {
		t.Fatalf("run(abl-theta): %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "fig99"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	// A scale outside (0, 1] is refused, not run at paper scale.
	for _, scale := range []string{"0", "-0.5", "2", "NaN"} {
		err := run([]string{"-scale", scale, "fig9"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("-scale %s: err = %v, want it refused", scale, err)
		}
	}
	// A negative worker count is refused before anything runs.
	err := run([]string{"-workers", "-3", "-scale", "0.05", "fig2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "must be non-negative") {
		t.Errorf("-workers -3: err = %v, want it refused", err)
	}
}

func TestRunMeasurementErrors(t *testing.T) {
	_, _, worldPath, tracePath := writeMeasurementFiles(t, 2, 600)
	if err := run([]string{"-world", worldPath}, io.Discard); err == nil {
		t.Error("-world without -trace accepted")
	}
	if err := run([]string{"-world", "/missing.json", "-trace", "/missing.csv"}, io.Discard); err == nil {
		t.Error("missing files accepted")
	}
	err := run([]string{"-world", worldPath, "-trace", tracePath, "fig2", "fig6"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"fig6"`) {
		t.Errorf("fig6 on -world/-trace: %v, want it refused by name", err)
	}
	// A trace drawn over more videos than the world holds.
	_, _, _, bigTrace := writeMeasurementFiles(t, 2, 3000)
	err = run([]string{"-world", worldPath, "-trace", bigTrace}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "outside [0, 600)") {
		t.Errorf("trace from another world: %v, want it refused", err)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "0.05", "-csv", dir, "fig9"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatalf("fig9.csv missing: %v", err)
	}
	if len(data) == 0 {
		t.Error("fig9.csv empty")
	}
}

// writeMeasurementFiles generates a small measurement-style world and
// trace over numVideos videos and writes them as cdntrace does.
func writeMeasurementFiles(t *testing.T, slots, numVideos int) (world *crowdcdn.World, tr *crowdcdn.Trace, worldPath, tracePath string) {
	t.Helper()
	cfg := crowdcdn.MeasurementTraceConfig()
	cfg.NumHotspots = 40
	cfg.NumVideos = numVideos
	cfg.NumUsers = 500
	cfg.NumRequests = 1500
	cfg.NumRegions = 5
	cfg.Slots = slots
	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	worldPath = filepath.Join(dir, "world.json")
	tracePath = filepath.Join(dir, "requests.csv")
	var wb, tb bytes.Buffer
	if err := crowdcdn.WriteWorld(&wb, world); err != nil {
		t.Fatal(err)
	}
	if err := crowdcdn.WriteRequests(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(worldPath, wb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return world, tr, worldPath, tracePath
}

// TestRunMeasurementFiles runs the default ids on an 8-slot world/trace
// file pair and requires the text crowdcdn.Analyze* renders on the
// generated pair: the files round-trip and the figures take the seed.
func TestRunMeasurementFiles(t *testing.T) {
	world, tr, worldPath, tracePath := writeMeasurementFiles(t, 8, 600)
	var got bytes.Buffer
	if err := run([]string{"-seed", "3", "-world", worldPath, "-trace", tracePath}, &got); err != nil {
		t.Fatalf("run: %v", err)
	}
	var want bytes.Buffer
	for _, analyze := range []func(*crowdcdn.World, *crowdcdn.Trace, int64) (*crowdcdn.Figure, error){
		crowdcdn.AnalyzeWorkloadDistribution,
		crowdcdn.AnalyzeWorkloadCorrelation,
		crowdcdn.AnalyzeContentSimilarity,
	} {
		fig, err := analyze(world, tr, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.Render(&want); err != nil {
			t.Fatal(err)
		}
	}
	if got.String() != want.String() {
		t.Errorf("cdnexp -world/-trace printed\n%s\nwant\n%s", got.String(), want.String())
	}
}

// TestRunMeasurementSingleSlot skips fig3a with a note on a one-slot
// trace rather than failing.
func TestRunMeasurementSingleSlot(t *testing.T) {
	_, _, worldPath, tracePath := writeMeasurementFiles(t, 1, 600)
	var got bytes.Buffer
	if err := run([]string{"-world", worldPath, "-trace", tracePath, "fig2", "fig3a", "fig3b"}, &got); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := got.String()
	if !strings.Contains(out, "skipping workload correlation") || strings.Contains(out, "== fig3a") ||
		!strings.Contains(out, "== fig2") || !strings.Contains(out, "== fig3b") {
		t.Errorf("single-slot run printed:\n%s", out)
	}
}
