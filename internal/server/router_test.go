package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// routerWorld generates the benchmark's edge shape at a smaller slot —
// the paper's 310-hotspot deployment and catalogue, uniform slots — with
// per-hotspot capacities that put one slot's offered load at load times
// the fleet's service capacity (the benchmark runs at the paper's 0.90),
// and the paper's cache-to-service ratio.
func routerWorld(t *testing.T, slotRequests int, load float64) (*trace.World, [][]trace.Request) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 1
	cfg.Slots = 2
	cfg.NumRequests = cfg.Slots * slotRequests
	cfg.SlotNoise = 1
	cfg.ServiceCapacityFrac = float64(slotRequests) / (load * float64(cfg.NumHotspots)) / float64(cfg.NumVideos)
	cfg.CacheCapacityFrac = cfg.ServiceCapacityFrac * 450 / 760
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr.BySlot()
}

// TestRouterDifferential publishes slot 0's plan, then posts slot 1's
// lookups from goroutines that each own a disjoint set of hotspots, in
// trace order within each hotspot and spread over every frontend. Every
// /redirect answer must equal a sequential core.Router on the same
// decoded plan and requests, and no hotspot may serve more than its
// capacity, counting local and redirected-in answers together. The
// offered load is twice the fleet's capacity, so budgets bind.
func TestRouterDifferential(t *testing.T) {
	world, slots := routerWorld(t, 5000, 2)
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	nearest := func(reqs []trace.Request) []int {
		hs := make([]int, len(reqs))
		for r, req := range reqs {
			hs[r], _, _ = index.Nearest(req.Location)
		}
		return hs
	}
	capacity := world.ServiceCapacities()
	for _, instances := range []int{1, 3} {
		t.Run(fmt.Sprintf("instances=%d", instances), func(t *testing.T) {
			s := newTestServer(t, Config{World: world, Instances: instances, QueueBound: 1 << 20})
			s.wg.Add(1)
			go s.recomputeLoop()
			defer func() {
				s.stopOnce.Do(func() { close(s.stop) })
				s.wg.Wait()
			}()
			for r, h := range nearest(slots[0]) {
				body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, slots[0][r].User, slots[0][r].Video, h)
				if rr := doAt(t, s, r%instances, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
					t.Fatalf("ingest %d: status %d", r, rr.Code)
				}
			}
			if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
				t.Fatalf("AdvanceSlot: %v", err)
			}
			canonical, err := hex.DecodeString(s.Plans()[0].Canonical)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.ParseCanonical(canonical)
			if err != nil {
				t.Fatal(err)
			}

			reqs, hs := slots[1], nearest(slots[1])
			got := make([]int, len(reqs))
			const workers = 4
			var wg sync.WaitGroup
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					posted := 0
					for r, h := range hs {
						if h%workers != g {
							continue
						}
						rr := doAt(t, s, posted%instances, http.MethodGet,
							fmt.Sprintf("/redirect?video=%d&hotspot=%d", reqs[r].Video, h), "")
						posted++
						var resp struct {
							Target int `json:"target"`
						}
						if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
							t.Errorf("request %d: %v (%s)", r, err, rr.Body.String())
							return
						}
						got[r] = resp.Target
					}
				}()
			}
			wg.Wait()

			router, err := core.NewRouter(plan.Placement, plan.Redirects, capacity)
			if err != nil {
				t.Fatal(err)
			}
			served := make([]int64, len(capacity))
			bound, redirected := 0, 0
			for r, h := range hs {
				if want := router.Route(h, int(reqs[r].Video)); got[r] != want {
					t.Fatalf("request %d (hotspot %d, video %d): /redirect %d, router %d", r, h, reqs[r].Video, got[r], want)
				}
				if got[r] != CDN && got[r] != h {
					redirected++
				}
				if got[r] != CDN {
					served[got[r]]++
				} else if plan.Placement.Contains(h, int(reqs[r].Video)) {
					bound++
				}
			}
			for h := range served {
				if served[h] > capacity[h] {
					t.Errorf("hotspot %d served %d, capacity %d", h, served[h], capacity[h])
				}
			}
			if bound == 0 || redirected == 0 {
				t.Fatalf("%d placed videos went to the CDN and %d requests were redirected: the slot must bind budgets and follow redirects", bound, redirected)
			}
		})
	}
}
