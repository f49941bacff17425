package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestComponentSolvesOnGoldenWorkloads runs the golden experiments
// (cdnexp -seed 1 -scale 0.05 fig6 resilience) with every step network
// of every RBCAer sweep held to the whole network solved as one graph
// and to its components solved in reverse order.
func TestComponentSolvesOnGoldenWorkloads(t *testing.T) {
	r := exp.NewRunner(1, 0.05)
	r.Workers = 2
	uninstall := core.CheckSteps(t)
	defer uninstall()
	for _, id := range []string{"fig6", "resilience"} {
		if _, err := r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	networks := uninstall()
	if networks == 0 {
		t.Fatal("no step network checked")
	}
	t.Logf("%d step networks checked", networks)
}
