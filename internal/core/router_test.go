package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// TestRouteMatchesRouteAll routes each seeded plan's next-slot requests
// twice — one at a time by Route, and as a slot by RouteAll — and holds
// the two to the same answers, to the plan's redirect counts and to
// every hotspot's capacity.
func TestRouteMatchesRouteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bound, redirected := 0, 0
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		w := lineWorld(n, 0.3+rng.Float64(), int64(5+rng.Intn(10)), 5+rng.Intn(40))
		videos := 20 + rng.Intn(100)
		plan := scheduleOK(t, w, DefaultParams(), randomDemand(w, 50+rng.Intn(400), videos, rng.Int63()))
		next := randomDemand(w, 50+rng.Intn(400), videos, rng.Int63())
		var nearest []int
		var vs []trace.VideoID
		for h := 0; h < n; h++ {
			next.Each(h, func(v trace.VideoID, count int64) {
				for range count {
					nearest = append(nearest, h)
					vs = append(vs, v)
				}
			})
		}
		rng.Shuffle(len(nearest), func(i, j int) {
			nearest[i], nearest[j] = nearest[j], nearest[i]
			vs[i], vs[j] = vs[j], vs[i]
		})

		capacity := w.ServiceCapacities()
		all, err := NewRouter(plan.Placement, plan.Redirects, capacity)
		if err != nil {
			t.Fatalf("trial %d: NewRouter: %v", trial, err)
		}
		one, err := NewRouter(plan.Placement, plan.Redirects, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want := all.RouteAll(nearest, vs)
		served := make([]int64, n)
		for i, h := range nearest {
			got := one.Route(h, int(vs[i]))
			if got != want[i] {
				t.Fatalf("trial %d request %d (hotspot %d, video %d): Route %d, RouteAll %d",
					trial, i, h, vs[i], got, want[i])
			}
			if got != CDN {
				served[got]++
			}
			if got != CDN && got != h {
				redirected++
			}
			if got == h && !plan.Placement.Contains(h, int(vs[i])) {
				t.Fatalf("trial %d: hotspot %d served video %d it does not place", trial, h, vs[i])
			}
		}
		for h := range served {
			if served[h] > capacity[h] {
				t.Fatalf("trial %d: hotspot %d served %d, capacity %d", trial, h, served[h], capacity[h])
			}
			if served[h] == capacity[h] {
				bound++
			}
		}
	}
	if bound == 0 || redirected == 0 {
		t.Fatalf("%d hotspots reached their capacity and %d requests were redirected: the trials must exercise both", bound, redirected)
	}
}

// TestRouterRefusesOverReservingPlan: a plan whose redirects reserve
// more inflow at a hotspot than its capacity builds no router.
func TestRouterRefusesOverReservingPlan(t *testing.T) {
	placement := PlacementRuns{IDs: []int32{4}, Off: []int{0, 0, 1}}
	redirects := []Redirect{
		{From: 0, To: 1, Video: 4, Count: 2},
		{From: 0, To: 1, Video: 7, Count: 2},
	}
	if _, err := NewRouter(placement, redirects, []int64{5, 3}); err == nil {
		t.Fatal("a plan reserving 4 at a hotspot of capacity 3 was accepted")
	}
	if _, err := NewRouter(placement, redirects, []int64{5, 4}); err != nil {
		t.Fatalf("a plan reserving exactly the capacity: %v", err)
	}
	if _, err := NewRouter(placement, redirects, []int64{5}); err == nil {
		t.Fatal("a capacity row shorter than the placement was accepted")
	}
}

// TestRouterZeroCapacityServesNothingLocally: a hotspot of capacity 0
// sends its placed videos' requests to the CDN, and its redirects still
// follow the plan.
func TestRouterZeroCapacityServesNothingLocally(t *testing.T) {
	placement := PlacementRuns{IDs: []int32{1, 2, 2}, Off: []int{0, 2, 3}}
	redirects := []Redirect{{From: 0, To: 1, Video: 3, Count: 1}}
	r, err := NewRouter(placement, redirects, []int64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	got := []int{r.Route(0, 1), r.Route(0, 2), r.Route(0, 3), r.Route(0, 3), r.Route(1, 2)}
	if want := []int{CDN, CDN, 1, CDN, 1}; !slices.Equal(got, want) {
		t.Fatalf("answers %v, want %v", got, want)
	}
}
