package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden CSV files under testdata/")

// goldenExperiments are the experiments locked by golden files: the
// paper's headline comparison sweep (fig6a-d) and the fault-resilience
// extension. Timing-based experiments (fig8, abl-workers) are excluded
// — their CSVs contain wall-clock measurements.
var goldenExperiments = []string{"fig6", "resilience"}

// goldenFiles is the exact CSV set the run must produce (phase-timings
// .csv is also produced but holds wall-clock data, so it is checked
// for presence only).
var goldenFiles = []string{
	"fig6a.csv", "fig6b.csv", "fig6c.csv", "fig6d.csv",
	"resilience-churn.csv", "resilience-outage.csv", "resilience-degrade.csv",
	"resilience-flash.csv", "resilience-stale.csv",
}

// TestGoldenCSV locks the experiment CSVs at seed 1, scale 0.05. The
// run uses 2 workers, so a pass also certifies parallel scheduling
// reproduces the sequential goldens byte-for-byte. Regenerate after an
// intentional output change with:
//
//	go test ./cmd/cdnexp -run TestGoldenCSV -update
func TestGoldenCSV(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-seed", "1", "-scale", "0.05", "-workers", "2", "-csv", dir}, goldenExperiments...)
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}

	if _, err := os.Stat(filepath.Join(dir, "phase-timings.csv")); err != nil {
		t.Errorf("phase-timings.csv not written: %v", err)
	}
	for _, name := range goldenFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("expected CSV missing: %v", err)
			continue
		}
		goldenPath := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden file missing (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from golden %s;\ngot:\n%s\nwant:\n%s\nrun with -update if the change is intentional",
				name, goldenPath, got, want)
		}
	}
}
