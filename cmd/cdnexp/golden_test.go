package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var (
	update       = flag.Bool("update", false, "rewrite the golden CSV files under testdata/")
	updateSpread = flag.Bool("update-spread", false, "rewrite testdata/spread.json from the experiments at seeds 1-5")
)

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

// spreadPath holds each golden point's [min, max] over spreadSeeds: the
// seed-to-seed spread the guard on -update measures a move against.
const spreadPath = "testdata/spread.json"

// spreadSeeds are the seeds whose runs span a golden point's spread.
var spreadSeeds = []int{1, 2, 3, 4, 5}

// spread maps a golden file to its points' seed ranges, by column and
// then by the row's x value.
type spread map[string]map[string]map[string][2]float64

// runGolden runs the golden experiments at seed and scale 0.05 on 2
// workers, writing their CSVs into dir.
func runGolden(t *testing.T, seed int, dir string) {
	t.Helper()
	args := append([]string{"-seed", strconv.Itoa(seed), "-scale", "0.05", "-workers", "2", "-csv", dir}, goldenExperiments...)
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run at seed %d: %v", seed, err)
	}
}

// goldenPoints parses a golden CSV's data rows into its points: value
// by column and then by the row's x value (the first field). Comment
// lines (#) carry no points.
func goldenPoints(data []byte) (map[string]map[string]float64, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.Comment = '#'
	recs, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no header")
	}
	cols := recs[0]
	pts := make(map[string]map[string]float64, len(cols)-1)
	for _, c := range cols[1:] {
		pts[c] = make(map[string]float64)
	}
	for _, rec := range recs[1:] {
		for n, field := range rec[1:] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("row %s, column %s: %v", rec[0], cols[n+1], err)
			}
			pts[cols[n+1]][rec[0]] = v
		}
	}
	return pts, nil
}

// spreadGuard returns an error naming every point of the fresh CSV got
// that moved from the committed golden want by more than half its seed
// range in sp, or that moved and has no range there.
func spreadGuard(name string, got, want []byte, sp spread) error {
	newPts, err := goldenPoints(got)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	oldPts, err := goldenPoints(want)
	if err != nil {
		return fmt.Errorf("golden %s: %v", name, err)
	}
	var msg string
	for col, rows := range newPts {
		for x, v := range rows {
			old, ok := oldPts[col][x]
			if ok && v == old {
				continue
			}
			rng, ok := sp[name][col][x]
			if !ok {
				msg += fmt.Sprintf("\n%s %s at %s: moved %v → %v and has no seed range in %s", name, col, x, old, v, spreadPath)
				continue
			}
			if math.Abs(v-old) > (rng[1]-rng[0])/2 {
				msg += fmt.Sprintf("\n%s %s at %s: moved %v → %v, more than half its seed range [%v, %v]", name, col, x, old, v, rng[0], rng[1])
			}
		}
	}
	if msg != "" {
		return fmt.Errorf("refusing to write %s:%s", name, msg)
	}
	return nil
}

// TestGoldenCSV locks the experiment CSVs at seed 1, scale 0.05. The
// run uses 2 workers, so a pass also certifies parallel scheduling
// reproduces the sequential goldens byte-for-byte. Regenerate after an
// intentional output change with:
//
//	go test ./cmd/cdnexp -run TestGoldenCSV -update
//
// which refuses to write a file in which any point moved by more than
// half its seed range (testdata/spread.json): a move that large is no
// tie flipping among equal-cost plans, it is a change of behaviour to
// explain first. The ranges themselves are rewritten, at the code
// before such a change, with -update-spread.
func TestGoldenCSV(t *testing.T) {
	dir := t.TempDir()
	runGolden(t, 1, dir)
	if *updateSpread {
		writeSpread(t, dir)
	}
	sp := readSpread(t)

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
		want, err := os.ReadFile(goldenPath)
		if *update && os.IsNotExist(err) {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("golden file missing (run with -update to create): %v", err)
		}
		if *update {
			if err := spreadGuard(name, got, want, sp); err != nil {
				t.Error(err)
				continue
			}
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from golden %s;\ngot:\n%s\nwant:\n%s\nrun with -update if the change is intentional",
				name, goldenPath, got, want)
		}
	}
}

// readSpread loads the committed seed ranges and checks that they cover
// every point of every golden file.
func readSpread(t *testing.T) spread {
	t.Helper()
	data, err := os.ReadFile(spreadPath)
	if err != nil {
		t.Fatalf("seed ranges missing (run with -update-spread to create): %v", err)
	}
	var sp spread
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatalf("%s: %v", spreadPath, err)
	}
	for _, name := range goldenFiles {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			continue // reported by the caller
		}
		pts, err := goldenPoints(want)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		for col, rows := range pts {
			for x := range rows {
				if rng, ok := sp[name][col][x]; !ok || rng[0] > rng[1] {
					t.Errorf("%s: %s at %s has no seed range", spreadPath, col, x)
				}
			}
		}
	}
	return sp
}

// writeSpread rewrites spreadPath from the runs at spreadSeeds; seed1
// holds the seed-1 run's CSVs.
func writeSpread(t *testing.T, seed1 string) {
	t.Helper()
	sp := make(spread)
	for _, seed := range spreadSeeds {
		dir := seed1
		if seed != 1 {
			dir = t.TempDir()
			runGolden(t, seed, dir)
		}
		for _, name := range goldenFiles {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			pts, err := goldenPoints(data)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			if sp[name] == nil {
				sp[name] = make(map[string]map[string][2]float64)
			}
			for col, rows := range pts {
				if sp[name][col] == nil {
					sp[name][col] = make(map[string][2]float64)
				}
				for x, v := range rows {
					rng, ok := sp[name][col][x]
					if !ok {
						rng = [2]float64{v, v}
					}
					sp[name][col][x] = [2]float64{min(rng[0], v), max(rng[1], v)}
				}
			}
		}
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spreadPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
