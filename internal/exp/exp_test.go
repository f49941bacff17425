package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// testRunner uses a tiny scale so every experiment finishes quickly.
func testRunner() *Runner { return NewRunner(1, 0.05) }

func TestNewRunnerClampsScale(t *testing.T) {
	if r := NewRunner(1, 0); r.Scale != 1 {
		t.Errorf("scale 0 → %v, want clamp to 1", r.Scale)
	}
	if r := NewRunner(1, 2); r.Scale != 1 {
		t.Errorf("scale 2 → %v, want clamp to 1", r.Scale)
	}
	if r := NewRunner(1, math.NaN()); r.Scale != 1 {
		t.Errorf("scale NaN → %v, want clamp to 1", r.Scale)
	}
	if r := NewRunner(1, 0.5); r.Scale != 0.5 {
		t.Errorf("scale 0.5 → %v", r.Scale)
	}
}

func TestScaleConfigPreservesLoadRatio(t *testing.T) {
	base := trace.DefaultConfig()
	scaled := scaleConfig(base, 0.1, 7)
	if err := scaled.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if scaled.Seed != 7 {
		t.Errorf("seed = %d, want 7", scaled.Seed)
	}
	baseRatio := float64(base.NumRequests) /
		(float64(base.NumHotspots) * float64(base.NumVideos) * base.ServiceCapacityFrac)
	scaledRatio := float64(scaled.NumRequests) /
		(float64(scaled.NumHotspots) * float64(scaled.NumVideos) * scaled.ServiceCapacityFrac)
	if rel := scaledRatio/baseRatio - 1; rel > 0.05 || rel < -0.05 {
		t.Errorf("load ratio drifted by %.1f%% under scaling", 100*rel)
	}
	// Scale 1 returns the config unchanged (apart from the seed).
	same := scaleConfig(base, 1, 0)
	if same.NumRequests != base.NumRequests || same.Bounds != base.Bounds {
		t.Error("scale 1 modified the config")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := testRunner().Run("fig42"); err == nil {
		t.Error("Run(unknown) succeeded")
	}
}

func TestExperimentsListMatchesRun(t *testing.T) {
	r := testRunner()
	for _, id := range Experiments() {
		figs, err := r.Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if len(figs) == 0 {
			t.Fatalf("Run(%s) produced no figures", id)
		}
		for _, fig := range figs {
			if fig.ID == "" || fig.Title == "" {
				t.Errorf("%s: figure missing metadata: %+v", id, fig)
			}
			if len(fig.Series) == 0 {
				t.Errorf("%s/%s: no series", id, fig.ID)
			}
			for _, s := range fig.Series {
				if len(s.X) != len(s.Y) {
					t.Errorf("%s/%s/%s: x/y length mismatch", id, fig.ID, s.Name)
				}
				if len(s.X) == 0 {
					t.Errorf("%s/%s/%s: empty series", id, fig.ID, s.Name)
				}
			}
		}
	}
}

func TestFigureCounts(t *testing.T) {
	r := testRunner()
	figs6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs6) != 4 {
		t.Fatalf("Fig6 produced %d figures, want 4 (a-d)", len(figs6))
	}
	wantIDs := []string{"fig6a", "fig6b", "fig6c", "fig6d"}
	for i, fig := range figs6 {
		if fig.ID != wantIDs[i] {
			t.Errorf("figure %d ID = %s, want %s", i, fig.ID, wantIDs[i])
		}
		if len(fig.Series) != 3 {
			t.Errorf("%s has %d series, want 3 schemes", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.X) != 6 {
				t.Errorf("%s/%s has %d points, want 6 capacities", fig.ID, s.Name, len(s.X))
			}
		}
	}
}

func TestFig2SeriesNames(t *testing.T) {
	fig, err := testRunner().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Nearest": true, "Random(1km)": true, "Random(5km)": true}
	for _, s := range fig.Series {
		delete(want, s.Name)
		// CDF values must be monotone in [0, 1].
		prev := 0.0
		for i, p := range s.Y {
			if p < prev-1e-9 || p < 0 || p > 1 {
				t.Fatalf("%s: CDF not monotone at %d", s.Name, i)
			}
			prev = p
		}
	}
	if len(want) != 0 {
		t.Errorf("missing series: %v", want)
	}
	if len(fig.Notes) < 3 {
		t.Errorf("Fig2 notes = %v, want the median/p99 and replication comparisons", fig.Notes)
	}
}

func TestFig9Fractions(t *testing.T) {
	fig, err := testRunner().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		prev := -1.0
		for i, y := range s.Y {
			if y < prev-1e-9 {
				t.Fatalf("%s not monotone at index %d", s.Name, i)
			}
			if y < 0 || y > 1+1e-9 {
				t.Fatalf("%s value %v outside [0, 1]", s.Name, y)
			}
			prev = y
		}
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{ID: "test", Title: "A Test", XLabel: "x", YLabel: "y"}
	fig.AddSeries("alpha", []float64{1, 2}, []float64{0.5, 1})
	fig.AddSeries("beta", []float64{2, 3}, []float64{0.25, 0.75})
	fig.Note("hello %d", 42)
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"== test: A Test ==", "alpha", "beta", "hello 42", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	// Union grid: x=1 row has a blank beta cell, x=3 a blank alpha cell.
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("Render produced too few lines:\n%s", out)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{0.5, "0.5"},
		{0.25, "0.25"},
		{1.23456, "1.2346"},
		{100000, "100000"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestRunnerCachesWorlds(t *testing.T) {
	r := testRunner()
	w1, t1, err := r.evalData()
	if err != nil {
		t.Fatal(err)
	}
	w2, t2, err := r.evalData()
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 || t1 != t2 {
		t.Error("evalData() did not cache")
	}
}

func TestWithCapacities(t *testing.T) {
	cfg := scaleConfig(trace.DefaultConfig(), 0.05, 1)
	world, _, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig0 := world.Hotspots[0]
	mod := withCapacities(world, 0.10, 0)
	wantSvc := int64(float64(world.NumVideos)*0.10 + 0.5)
	if mod.Hotspots[0].ServiceCapacity != wantSvc {
		t.Errorf("capacity = %d, want %d", mod.Hotspots[0].ServiceCapacity, wantSvc)
	}
	if mod.Hotspots[0].CacheCapacity != orig0.CacheCapacity {
		t.Error("cache changed although frac was 0")
	}
	if world.Hotspots[0] != orig0 {
		t.Error("withCapacities mutated the base world")
	}
}

func TestFigureWriteCSV(t *testing.T) {
	fig := &Figure{ID: "csvtest", Title: "CSV Test", XLabel: "x", YLabel: "y"}
	fig.AddSeries("a", []float64{1, 2}, []float64{0.5, 1.5})
	fig.AddSeries("b", []float64{2, 3}, []float64{7, 8})
	fig.Note("a note")
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"# CSV Test", "# a note", "x,a,b", "1,0.5,", "2,1.5,7", "3,,8"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
