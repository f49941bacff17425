// Measurement: reproduce the paper's Sec. II measurement insights on a
// synthetic city-scale deployment — skewed nearest-routing workloads
// (Fig. 2), low workload correlation between nearby hotspots (Fig. 3a),
// and diverse content similarity (Fig. 3b).
package main

import (
	"fmt"
	"os"

	crowdcdn "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "measurement: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A quarter-scale measurement world keeps the example fast while
	// preserving the statistics; run cmd/cdnexp fig2 fig3a fig3b for
	// full scale, or with -world/-trace on cdntrace's files.
	cfg := crowdcdn.MeasurementTraceConfig()
	cfg.NumHotspots = 1200
	cfg.NumVideos = 15000
	cfg.NumUsers = 50000
	cfg.NumRequests = 280000
	cfg.NumRegions = 16

	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("measurement world: %d hotspots, %d requests over %d hourly slots\n\n",
		len(world.Hotspots), len(tr.Requests), tr.Slots)

	for _, analyze := range []func(*crowdcdn.World, *crowdcdn.Trace, int64) (*crowdcdn.Figure, error){
		crowdcdn.AnalyzeWorkloadDistribution,
		crowdcdn.AnalyzeWorkloadCorrelation,
		crowdcdn.AnalyzeContentSimilarity,
	} {
		fig, err := analyze(world, tr, 1)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", fig.ID, fig.Title)
		for _, note := range fig.Notes {
			fmt.Printf("  %s\n", note)
		}
		fmt.Println()
	}
	fmt.Println("full CDF tables: go run ./cmd/cdnexp fig2 fig3a fig3b (-world/-trace for files)")
	return nil
}
