// Serving: run the online scheduling service in-process, replay a
// generated trace through it over real HTTP with the load generator,
// and inspect the per-slot plans it served — including the ingest,
// lookup, and swap metrics the server records.
//
// The walkthrough mirrors a deployment: requests POST to /ingest as
// they arrive, a slot boundary triggers one RBCAer round on a
// dedicated worker, and GET /redirect answers from the atomically
// swapped current plan. Here slots advance manually (deterministic
// mode); a real deployment sets ServerConfig.SlotDuration instead.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	crowdcdn "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "serving: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.NumHotspots = 24
	cfg.NumVideos = 800
	cfg.NumUsers = 600
	cfg.NumRequests = 4000
	cfg.NumRegions = 4
	cfg.Slots = 5

	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}

	// Boot the service on an ephemeral port with manual slots. The
	// registry collects the server's counters and latency histograms.
	reg := crowdcdn.NewMetricsRegistry()
	srv, err := crowdcdn.NewServer(crowdcdn.ServerConfig{
		World:       world,
		Registry:    reg,
		PlanHistory: tr.Slots + 1,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	fmt.Printf("online scheduler serving %d hotspots at %s\n\n", len(world.Hotspots), base)

	// Replay the trace: each slot's requests are POSTed concurrently,
	// then POST /admin/advance forces the slot boundary and blocks
	// until the slot's plan is live.
	report, err := crowdcdn.ReplayTrace(base, world, tr, crowdcdn.LoadgenOptions{})
	if err != nil {
		return err
	}
	fmt.Println("per-slot plans (from the replay report):")
	for _, sr := range report.Slots {
		fmt.Printf("  slot %d: %d requests -> epoch %d digest %s\n",
			sr.Slot, sr.Accepted, sr.Epoch, sr.Digest)
	}
	fmt.Printf("total: %d accepted, %d rejected\n\n", report.Accepted, report.Rejected)

	// Plan records carry the scheduling outcomes per slot.
	fmt.Println("plan history (GET /plans view):")
	for _, rec := range srv.Plans() {
		fmt.Printf("  slot %d: %d replicas, %d redirect edges, moved flow %d, stranded %d, degraded=%v\n",
			rec.Slot, rec.Replicas, rec.Redirects, rec.MovedFlow, rec.Stranded, rec.Degraded)
	}

	// Ask the live API where a few requests should go. Target -1 is
	// the origin CDN server; anything else is a hotspot id.
	fmt.Println("\nsample lookups against the current plan:")
	for h := 0; h < 3; h++ {
		var resp struct {
			Target int    `json:"target"`
			Digest string `json:"digest"`
		}
		r, err := http.Get(fmt.Sprintf("%s/redirect?video=%d&hotspot=%d", base, h*7, h))
		if err != nil {
			return err
		}
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			r.Body.Close()
			return err
		}
		r.Body.Close()
		fmt.Printf("  video %d at hotspot %d -> target %d (plan %s)\n", h*7, h, resp.Target, resp.Digest)
	}

	// The server's own metrics: ingest/lookup volumes and plan swaps.
	fmt.Println("\nserver metrics:")
	for _, c := range reg.Snapshot(false).Counters {
		fmt.Printf("  %-28s %d\n", c.Name, c.Value)
	}
	return nil
}
