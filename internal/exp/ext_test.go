package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestExtensionExperimentsRun(t *testing.T) {
	r := NewRunner(1, 0.05)
	for _, id := range ExtensionExperiments() {
		if id == "ext-hier" {
			continue // covered separately; it generates three worlds
		}
		t.Run(id, func(t *testing.T) {
			figs, err := r.Run(id)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(figs) == 0 {
				t.Fatal("no figures")
			}
			var buf bytes.Buffer
			for _, fig := range figs {
				// Multi-figure experiments (resilience) emit one figure
				// per sub-scenario under an "<id>-<name>" ID.
				if !strings.HasPrefix(fig.ID, id) {
					t.Errorf("figure ID %q, want prefix %q", fig.ID, id)
				}
				if len(fig.Series) == 0 {
					t.Error("no series")
				}
				if err := fig.Render(&buf); err != nil {
					t.Fatalf("Render: %v", err)
				}
			}
		})
	}
}

func TestExtHierarchical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three worlds")
	}
	r := NewRunner(1, 0.05)
	fig, err := r.ExtHierarchical()
	if err != nil {
		t.Fatalf("ExtHierarchical: %v", err)
	}
	// flat, flat at θ2 = 3 and 6 km, hierarchical: time and serving each.
	if len(fig.Series) != 8 {
		t.Fatalf("got %d series, want 8", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 3 {
			t.Errorf("%s has %d points, want 3 fleet sizes", s.Name, len(s.X))
		}
	}
}

func TestExtChurnMonotone(t *testing.T) {
	r := NewRunner(1, 0.05)
	fig, err := r.ExtChurn()
	if err != nil {
		t.Fatalf("ExtChurn: %v", err)
	}
	for _, s := range fig.Series {
		if len(s.Y) < 2 {
			t.Fatalf("%s too short", s.Name)
		}
		// Serving at max churn must be below serving with no churn.
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("%s: serving did not degrade under churn: %v", s.Name, s.Y)
		}
	}
}

func TestExtShardSweep(t *testing.T) {
	r := NewRunner(1, 0.05)
	fig, err := r.ExtShard()
	if err != nil {
		t.Fatalf("ExtShard: %v", err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(fig.Series))
	}
	n := len(fig.Series[0].X)
	if n < 2 {
		t.Fatalf("sweep has %d shard counts, want at least the 1-shard and a multi-shard point", n)
	}
	for _, s := range fig.Series {
		if len(s.X) != n || len(s.Y) != n {
			t.Fatalf("%s has %d/%d points, want %d", s.Name, len(s.X), len(s.Y), n)
		}
	}
	// The coarsest cell yields a single shard, where no redirect can
	// cross a boundary: the communication cost must be exactly zero.
	if fig.Series[0].Name != "boundary-flow" {
		t.Fatalf("series[0] = %q, want boundary-flow", fig.Series[0].Name)
	}
	if fig.Series[0].X[0] != 1 || fig.Series[0].Y[0] != 0 {
		t.Errorf("1-shard point = (%v, %v), want (1, 0)", fig.Series[0].X[0], fig.Series[0].Y[0])
	}
}

func TestResilience(t *testing.T) {
	r := NewRunner(1, 0.05)
	figs, err := r.Resilience()
	if err != nil {
		t.Fatalf("Resilience: %v", err)
	}
	if len(figs) != 5 {
		t.Fatalf("got %d figures, want 5 failure families", len(figs))
	}
	byID := map[string]*Figure{}
	for _, fig := range figs {
		byID[fig.ID] = fig
		if len(fig.Series) != 3 {
			t.Errorf("%s has %d series, want RBCAer + 2 baselines", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.X) != 4 {
				t.Errorf("%s/%s has %d intensity levels, want 4", fig.ID, s.Name, len(s.X))
			}
		}
	}
	// The strongest outage blankets half the world's diagonal: every
	// scheme must lose serving ratio against its fault-free baseline.
	outage := byID["resilience-outage"]
	if outage == nil {
		t.Fatal("no resilience-outage figure")
	}
	for _, s := range outage.Series {
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("%s: serving did not degrade under a half-diagonal outage: %v", s.Name, s.Y)
		}
	}
}

func TestUnknownExtension(t *testing.T) {
	r := NewRunner(1, 0.05)
	if _, err := r.Run("ext-nope"); err == nil {
		t.Error("Run(unknown extension) succeeded")
	}
}
