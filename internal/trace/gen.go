package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/stats"
)

// Config parameterises the synthetic world and trace generator. The
// defaults (DefaultConfig / MeasurementConfig) are
// calibrated against the statistics the paper reports for its
// proprietary datasets; see the package comment and DESIGN.md.
type Config struct {
	// Seed drives all randomness; equal configs generate equal worlds.
	Seed int64

	// Bounds is the service region on the kilometre plane.
	Bounds geo.Rect

	NumHotspots int
	NumVideos   int
	NumUsers    int
	NumRequests int
	// Slots is the number of timeslots the trace spans. The diurnal
	// activity model is expressed over a 24-hour day and resampled to
	// this resolution; Slots=1 collapses the trace into a single
	// scheduling round as in the paper's Sec. V evaluation.
	Slots int

	// ZipfAlpha is the exponent of the global video-popularity Zipf law.
	ZipfAlpha float64
	// UserActivityAlpha is the exponent of the Zipf law over per-user
	// session counts (a few heavy watchers, a long tail).
	UserActivityAlpha float64

	// NumRegions is the number of demand regions (spatial Gaussian
	// clusters with their own diurnal profile and local catalogue).
	NumRegions int
	// RegionWeightAlpha skews how population mass spreads over regions.
	RegionWeightAlpha float64
	// RegionStdKm is the spatial standard deviation of user homes
	// around their region centre.
	RegionStdKm float64
	// HotspotUniformFrac is the fraction of hotspots deployed uniformly
	// at random; the rest follow region centres (with a wider spread),
	// mimicking denser AP deployment where people are.
	HotspotUniformFrac float64
	// UserUniformFrac is the fraction of users placed uniformly.
	UserUniformFrac float64

	// LocalityWeight is the probability that a request draws from its
	// region's local catalogue instead of the global catalogue — the
	// "small population" effect that differentiates nearby hotspots'
	// content (paper Sec. II-B).
	LocalityWeight float64
	// LocalCatalogFrac sizes each region's local catalogue as a
	// fraction of the full video set.
	LocalCatalogFrac float64

	// ServiceCapacityFrac sets every hotspot's per-slot service
	// capacity to this fraction of the video-set size (the paper's
	// "capacity 5% == 760 requests" convention).
	ServiceCapacityFrac float64
	// CacheCapacityFrac sets every hotspot's cache size to this
	// fraction of the video-set size (the paper's "cache 3% == 450").
	CacheCapacityFrac float64

	// SlotNoise is the probability that a request's timeslot is drawn
	// uniformly instead of from its region's diurnal profile,
	// modelling irregular individual viewing behaviour.
	SlotNoise float64

	// CDNDistanceKm is the latency proxy charged for origin-served
	// requests; 0 means "use the bounds diagonal" (the paper's 20 km).
	CDNDistanceKm float64
	// JitterStdKm spreads request locations around the user's home.
	JitterStdKm float64
}

// DefaultConfig returns the evaluation-scale configuration matching the
// paper's Sec. V setup: a 17x11 km region, 310 hotspots, 15,190 videos,
// 212,472 requests, service capacity 5% and cache 3% of the video set.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		Bounds:              geo.Rect{MinX: 0, MinY: 0, MaxX: 17, MaxY: 11},
		NumHotspots:         310,
		NumVideos:           15190,
		NumUsers:            30000,
		NumRequests:         212472,
		Slots:               1,
		ZipfAlpha:           1.0,
		UserActivityAlpha:   0.6,
		NumRegions:          14,
		RegionWeightAlpha:   0.9,
		RegionStdKm:         1.1,
		HotspotUniformFrac:  0.45,
		UserUniformFrac:     0.15,
		LocalityWeight:      0.6,
		LocalCatalogFrac:    0.01,
		ServiceCapacityFrac: 0.05,
		CacheCapacityFrac:   0.03,
		SlotNoise:           0.2,
		JitterStdKm:         0.25,
	}
}

// MeasurementConfig returns the measurement-scale configuration for the
// Sec. II study: a city-scale region with 5,000 sampled hotspots and a
// full day of requests in hourly slots.
func MeasurementConfig() Config {
	cfg := DefaultConfig()
	cfg.Bounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 44, MaxY: 36}
	cfg.NumHotspots = 5000
	cfg.NumVideos = 60000
	cfg.NumUsers = 220000
	cfg.NumRequests = 1200000
	cfg.Slots = 24
	cfg.NumRegions = 60
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Bounds.Valid() || c.Bounds.Area() <= 0 {
		return fmt.Errorf("trace: invalid bounds %+v", c.Bounds)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumHotspots", c.NumHotspots},
		{"NumVideos", c.NumVideos},
		{"NumUsers", c.NumUsers},
		{"NumRequests", c.NumRequests},
		{"Slots", c.Slots},
		{"NumRegions", c.NumRegions},
	} {
		if f.v <= 0 {
			return fmt.Errorf("trace: %s must be positive, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HotspotUniformFrac", c.HotspotUniformFrac},
		{"UserUniformFrac", c.UserUniformFrac},
		{"LocalityWeight", c.LocalityWeight},
		{"SlotNoise", c.SlotNoise},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("trace: %s must be in [0,1], got %v", f.name, f.v)
		}
	}
	if c.LocalCatalogFrac <= 0 || c.LocalCatalogFrac > 1 {
		return fmt.Errorf("trace: LocalCatalogFrac must be in (0,1], got %v", c.LocalCatalogFrac)
	}
	if c.ZipfAlpha < 0 || c.UserActivityAlpha < 0 || c.RegionWeightAlpha < 0 {
		return fmt.Errorf("trace: Zipf exponents must be non-negative")
	}
	if c.RegionStdKm <= 0 {
		return fmt.Errorf("trace: RegionStdKm must be positive, got %v", c.RegionStdKm)
	}
	if c.ServiceCapacityFrac < 0 || c.CacheCapacityFrac < 0 {
		return fmt.Errorf("trace: capacity fractions must be non-negative")
	}
	if c.CDNDistanceKm < 0 {
		return fmt.Errorf("trace: CDNDistanceKm must be non-negative, got %v", c.CDNDistanceKm)
	}
	if c.JitterStdKm < 0 {
		return fmt.Errorf("trace: JitterStdKm must be non-negative, got %v", c.JitterStdKm)
	}
	return nil
}

// regionKind selects a diurnal activity profile.
type regionKind int

const (
	regionResidential regionKind = iota
	regionOffice
	regionMixed
)

// hourProfile returns relative activity for each hour of a 24-hour day.
func (k regionKind) hourProfile() [24]float64 {
	var p [24]float64
	for h := 0; h < 24; h++ {
		switch k {
		case regionResidential:
			switch {
			case h >= 18 && h <= 23:
				p[h] = 1.0
			case h >= 7 && h <= 9:
				p[h] = 0.45
			case h >= 10 && h <= 17:
				p[h] = 0.25
			default:
				p[h] = 0.08
			}
		case regionOffice:
			switch {
			case h >= 9 && h <= 17:
				p[h] = 1.0
			case h >= 7 && h <= 8, h == 18:
				p[h] = 0.5
			case h >= 19 && h <= 22:
				p[h] = 0.2
			default:
				p[h] = 0.05
			}
		default: // regionMixed
			switch {
			case h >= 8 && h <= 22:
				p[h] = 0.7
			default:
				p[h] = 0.15
			}
		}
	}
	return p
}

// slotWeights resamples an hourly profile onto `slots` timeslots. With
// more than 24 slots the day repeats (slot s maps to hour s mod 24), so
// a 48-slot trace spans two diurnal cycles.
func slotWeights(p [24]float64, slots int) []float64 {
	w := make([]float64, slots)
	if slots > 24 {
		for s := 0; s < slots; s++ {
			w[s] = p[s%24]
		}
		return w
	}
	for s := 0; s < slots; s++ {
		// Average the hours that map into this slot.
		lo := float64(s) * 24 / float64(slots)
		hi := float64(s+1) * 24 / float64(slots)
		var sum, cnt float64
		for h := int(lo); float64(h) < hi && h < 24; h++ {
			sum += p[h]
			cnt++
		}
		if cnt == 0 {
			sum, cnt = p[int(lo)%24], 1
		}
		w[s] = sum / cnt
	}
	return w
}

// randomizeProfile individualises a base diurnal profile: a cyclic
// phase shift of up to ±3 hours, a random blend toward uniform
// activity, and per-hour multiplicative jitter. Without this, every
// region of the same kind would share one profile and the workload
// correlation between nearby hotspots (paper Fig. 3a) would be far
// higher than measured.
func randomizeProfile(base [24]float64, rng *rand.Rand) [24]float64 {
	var mean float64
	for _, v := range base {
		mean += v
	}
	mean /= 24

	shift := rng.Intn(7) - 3
	eta := 0.1 + 0.4*rng.Float64()
	var out [24]float64
	for h := 0; h < 24; h++ {
		v := base[((h-shift)%24+24)%24]
		v = (1-eta)*v + eta*mean
		v *= math.Exp(rng.NormFloat64() * 0.35)
		out[h] = v
	}
	return out
}

// region is one demand cluster.
type region struct {
	center   geo.Point
	kind     regionKind
	catalog  []VideoID // local catalogue, most-popular-first
	slotProb *stats.Alias
	catProb  *stats.Alias
}

// Generate builds a world and trace from the configuration. Generation
// is fully deterministic in cfg (including Seed).
func Generate(cfg Config) (*World, *Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}

	regions, err := makeRegions(cfg)
	if err != nil {
		return nil, nil, err
	}
	world, err := makeWorld(cfg, regions)
	if err != nil {
		return nil, nil, err
	}
	tr, err := makeTrace(cfg, regions)
	if err != nil {
		return nil, nil, err
	}
	return world, tr, nil
}

func makeRegions(cfg Config) ([]region, error) {
	rng := stats.SplitRand(cfg.Seed, "regions")
	regions := make([]region, cfg.NumRegions)

	catSize := int(float64(cfg.NumVideos)*cfg.LocalCatalogFrac + 0.5)
	if catSize < 1 {
		catSize = 1
	}
	catAlias, err := stats.NewZipf(catSize, 1.0)
	if err != nil {
		return nil, fmt.Errorf("trace: catalogue popularity: %w", err)
	}
	// Catalogue membership is popularity-biased (a mild Zipf over the
	// whole video set) so regions overlap on the popular head.
	catalogPick, err := stats.NewZipf(cfg.NumVideos, 0.6)
	if err != nil {
		return nil, fmt.Errorf("trace: catalogue membership: %w", err)
	}

	for k := range regions {
		r := &regions[k]
		r.center = geo.Point{
			X: cfg.Bounds.MinX + rng.Float64()*cfg.Bounds.Width(),
			Y: cfg.Bounds.MinY + rng.Float64()*cfg.Bounds.Height(),
		}
		switch rng.Intn(3) {
		case 0:
			r.kind = regionOffice
		case 1:
			r.kind = regionMixed
		default:
			r.kind = regionResidential
		}
		sw := slotWeights(randomizeProfile(r.kind.hourProfile(), rng), cfg.Slots)
		r.slotProb, err = stats.NewAlias(sw)
		if err != nil {
			return nil, fmt.Errorf("trace: region %d slot profile: %w", k, err)
		}
		// Local catalogue: a region-specific subset of the video set
		// sampled with a popularity bias (globally popular videos show
		// up in many regions' catalogues, obscure ones in few). This
		// yields the Fig. 3b behaviour: nearby hotspots in one region
		// share most of their top content, hotspots across regions
		// share only the popular head, and the similarity spread
		// between nearby hotspots is wide.
		r.catalog = make([]VideoID, catSize)
		seen := make(map[int]struct{}, catSize)
		for i := 0; i < catSize; {
			v := catalogPick.Sample(rng)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			r.catalog[i] = VideoID(v)
			i++
		}
		r.catProb = catAlias
	}
	return regions, nil
}

func makeWorld(cfg Config, regions []region) (*World, error) {
	rng := stats.SplitRand(cfg.Seed, "world")
	regionWeights, err := stats.ZipfWeights(cfg.NumRegions, cfg.RegionWeightAlpha)
	if err != nil {
		return nil, err
	}
	regionPick, err := stats.NewAlias(regionWeights)
	if err != nil {
		return nil, err
	}

	svc := int64(float64(cfg.NumVideos)*cfg.ServiceCapacityFrac + 0.5)
	cache := int(float64(cfg.NumVideos)*cfg.CacheCapacityFrac + 0.5)

	hotspots := make([]Hotspot, cfg.NumHotspots)
	for i := range hotspots {
		var p geo.Point
		if rng.Float64() < cfg.HotspotUniformFrac {
			p = geo.Point{
				X: cfg.Bounds.MinX + rng.Float64()*cfg.Bounds.Width(),
				Y: cfg.Bounds.MinY + rng.Float64()*cfg.Bounds.Height(),
			}
		} else {
			// APs cluster where people are, but with a wider spread
			// than the users themselves — this gap is what produces
			// the skewed nearest-routing workloads of Fig. 2.
			c := regions[regionPick.Sample(rng)]
			std := cfg.RegionStdKm * 1.8
			p = cfg.Bounds.Clamp(c.center.Add(rng.NormFloat64()*std, rng.NormFloat64()*std))
		}
		hotspots[i] = Hotspot{
			ID:              HotspotID(i),
			Location:        p,
			ServiceCapacity: svc,
			CacheCapacity:   cache,
		}
	}

	cdn := cfg.CDNDistanceKm
	if cdn == 0 {
		cdn = cfg.Bounds.Diagonal()
	}
	w := &World{
		Bounds:        cfg.Bounds,
		Hotspots:      hotspots,
		NumVideos:     cfg.NumVideos,
		CDNDistanceKm: cdn,
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func makeTrace(cfg Config, regions []region) (*Trace, error) {
	rng := stats.SplitRand(cfg.Seed, "trace")

	regionWeights, err := stats.ZipfWeights(cfg.NumRegions, cfg.RegionWeightAlpha)
	if err != nil {
		return nil, err
	}
	regionPick, err := stats.NewAlias(regionWeights)
	if err != nil {
		return nil, err
	}

	// Place users: mostly clustered tightly around region centres.
	type user struct {
		home   geo.Point
		region int32
	}
	users := make([]user, cfg.NumUsers)
	for i := range users {
		if rng.Float64() < cfg.UserUniformFrac {
			users[i] = user{
				home: geo.Point{
					X: cfg.Bounds.MinX + rng.Float64()*cfg.Bounds.Width(),
					Y: cfg.Bounds.MinY + rng.Float64()*cfg.Bounds.Height(),
				},
				region: int32(rng.Intn(cfg.NumRegions)),
			}
		} else {
			k := regionPick.Sample(rng)
			c := regions[k]
			users[i] = user{
				home: cfg.Bounds.Clamp(c.center.Add(
					rng.NormFloat64()*cfg.RegionStdKm,
					rng.NormFloat64()*cfg.RegionStdKm,
				)),
				region: int32(k),
			}
		}
	}

	userPickWeights, err := stats.ZipfWeights(cfg.NumUsers, cfg.UserActivityAlpha)
	if err != nil {
		return nil, err
	}
	// Shuffle activity ranks so heavy watchers are not spatially biased.
	rng.Shuffle(len(userPickWeights), func(i, j int) {
		userPickWeights[i], userPickWeights[j] = userPickWeights[j], userPickWeights[i]
	})
	userPick, err := stats.NewAlias(userPickWeights)
	if err != nil {
		return nil, err
	}

	globalPick, err := stats.NewZipf(cfg.NumVideos, cfg.ZipfAlpha)
	if err != nil {
		return nil, err
	}

	reqs := make([]Request, cfg.NumRequests)
	for i := range reqs {
		u := userPick.Sample(rng)
		usr := users[u]
		reg := &regions[usr.region]
		slot := 0
		if cfg.Slots > 1 {
			if rng.Float64() < cfg.SlotNoise {
				slot = rng.Intn(cfg.Slots)
			} else {
				slot = reg.slotProb.Sample(rng)
			}
		}
		var video VideoID
		if rng.Float64() < cfg.LocalityWeight {
			video = reg.catalog[reg.catProb.Sample(rng)]
		} else {
			video = VideoID(globalPick.Sample(rng))
		}
		loc := usr.home
		if cfg.JitterStdKm > 0 {
			loc = cfg.Bounds.Clamp(loc.Add(
				rng.NormFloat64()*cfg.JitterStdKm,
				rng.NormFloat64()*cfg.JitterStdKm,
			))
		}
		reqs[i] = Request{
			ID:       i,
			User:     UserID(u),
			Video:    video,
			Location: loc,
			Slot:     slot,
		}
	}
	return &Trace{Slots: cfg.Slots, Requests: reqs}, nil
}
