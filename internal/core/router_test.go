package core

import (
	"cmp"
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

// TestSortRedirectsMatchesStableSort holds the router's counting sort
// to slices.SortStableFunc on (source, video) over shuffled redirects
// whose keys repeat — so plan order decides among them — with zero
// counts mixed in, which the router drops.
func TestSortRedirectsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m, videos := 1+rng.Intn(12), 1+rng.Intn(6)
		redirects := make([]Redirect, rng.Intn(300))
		for i := range redirects {
			redirects[i] = Redirect{
				From:  trace.HotspotID(rng.Intn(m)),
				To:    trace.HotspotID(rng.Intn(m)),
				Video: trace.VideoID(rng.Intn(videos)),
				Count: int64(rng.Intn(4)),
			}
		}
		var want []Redirect
		rows := make([]int, m+1)
		for _, rd := range redirects {
			if rd.Count > 0 {
				want = append(want, rd)
				rows[rd.From+1]++
			}
		}
		for h := 0; h < m; h++ {
			rows[h+1] += rows[h]
		}
		slices.SortStableFunc(want, func(a, b Redirect) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Video, b.Video))
		})
		if got := sortRedirects(redirects, rows); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("trial %d: %v\nstable sort: %v", trial, got, want)
		}
	}
}

// TestRouterRefusesRedirectOutsideRows: a redirect from a hotspot the
// placement has no row for builds no router.
func TestRouterRefusesRedirectOutsideRows(t *testing.T) {
	placement := PlacementRuns{Off: []int{0, 0, 0}}
	if _, err := NewRouter(placement, []Redirect{{From: 2, To: 1, Video: 4, Count: 1}}, []int64{5, 5}); err == nil {
		t.Fatal("a redirect from hotspot 2 of a 2-row placement was accepted")
	}
}

// BenchmarkNewRouter times the router build behind every install
// (server.slot.install_us) on a real round's plan at 310 and 1,240
// hotspots (BenchmarkReplicate's inputs).
func BenchmarkNewRouter(b *testing.B) {
	for _, bc := range roundInputs {
		world := lineWorld(bc.m, 0.1, 30, 40)
		s, err := New(world, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := s.ScheduleRound(randomDemand(world, bc.requests, bc.videos, 1), Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		capacity := world.ServiceCapacities()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewRouter(plan.Placement, plan.Redirects, capacity); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(plan.Redirects)), "redirects")
		})
	}
}
