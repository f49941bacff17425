package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
)

// The ServeGen-style workload specification: a line-based grammar
// declaring client classes, each an open-loop population of independent
// clients with its own inter-arrival process and video-popularity
// skew. Generate materialises a spec as a trace, so a generated
// workload is replayed (Replay) and checked (OfflinePlans) like any
// other. Blank lines and '#' comments are ignored; every other line is
//
//	class <name> clients=N arrival=<dist> rate=R [shape=S] [videos=zipf:A|uniform]
//
// where <dist> is poisson, gamma, or weibull; rate R is each client's
// mean request rate in requests/second (so whatever the distribution
// and shape, the class's offered load is clients·rate req/s); shape S
// is required for gamma and weibull (burstiness: shape < 1 is burstier
// than Poisson, shape > 1 smoother) and forbidden for poisson; videos
// selects the per-request popularity distribution (default zipf:0.8).
// Parsing is strict: unknown keys, duplicate keys, duplicate class
// names, and out-of-range values are all errors.

// Arrival distributions.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
)

// ClassSpec is one declared client class.
type ClassSpec struct {
	// Name labels the class (unique within a Spec; it seeds the class's
	// random streams, so renaming a class changes its draws but leaves
	// every other class byte-identical).
	Name string
	// Clients is the number of independent open-loop clients.
	Clients int
	// Arrival is the inter-arrival distribution (Arrival* constants).
	Arrival string
	// Rate is each client's mean request rate, requests/second.
	Rate float64
	// Shape is the gamma/weibull shape parameter (0 for poisson).
	Shape float64
	// ZipfAlpha is the video-popularity Zipf exponent; Uniform selects
	// the uniform catalogue instead.
	ZipfAlpha float64
	Uniform   bool
}

// Spec is a parsed workload specification.
type Spec struct {
	Classes []ClassSpec
}

// Clients returns the total client population.
func (s *Spec) Clients() int {
	n := 0
	for _, c := range s.Classes {
		n += c.Clients
	}
	return n
}

// OfferedLoad returns the aggregate mean request rate, requests/second.
func (s *Spec) OfferedLoad() float64 {
	var r float64
	for _, c := range s.Classes {
		r += float64(c.Clients) * c.Rate
	}
	return r
}

// String renders the spec back in the grammar (ParseSpec(s.String())
// reproduces s — the fuzz target holds the round trip).
func (s *Spec) String() string {
	var b strings.Builder
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "class %s clients=%d arrival=%s rate=%s", c.Name, c.Clients, c.Arrival,
			strconv.FormatFloat(c.Rate, 'g', -1, 64))
		if c.Arrival != ArrivalPoisson {
			fmt.Fprintf(&b, " shape=%s", strconv.FormatFloat(c.Shape, 'g', -1, 64))
		}
		if c.Uniform {
			b.WriteString(" videos=uniform")
		} else {
			fmt.Fprintf(&b, " videos=zipf:%s", strconv.FormatFloat(c.ZipfAlpha, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// maxSpecClients bounds the declared population so a malformed or
// adversarial spec cannot demand gigabytes of generation state.
const maxSpecClients = 1 << 20

// ParseSpec parses the workload grammar above.
func ParseSpec(text string) (*Spec, error) {
	spec := &Spec{}
	seen := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "class" || len(fields) < 2 {
			return nil, fmt.Errorf("loadgen: line %d: expected \"class <name> key=value...\"", ln+1)
		}
		c := ClassSpec{Name: fields[1], ZipfAlpha: 0.8}
		if strings.ContainsRune(c.Name, '=') {
			return nil, fmt.Errorf("loadgen: line %d: class name missing", ln+1)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("loadgen: line %d: duplicate class %q", ln+1, c.Name)
		}
		seen[c.Name] = true
		keys := make(map[string]bool)
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || val == "" {
				return nil, fmt.Errorf("loadgen: line %d: %q is not key=value", ln+1, kv)
			}
			if keys[key] {
				return nil, fmt.Errorf("loadgen: line %d: duplicate key %q", ln+1, key)
			}
			keys[key] = true
			var err error
			switch key {
			case "clients":
				c.Clients, err = strconv.Atoi(val)
			case "arrival":
				switch val {
				case ArrivalPoisson, ArrivalGamma, ArrivalWeibull:
					c.Arrival = val
				default:
					err = fmt.Errorf("unknown arrival distribution %q", val)
				}
			case "rate":
				c.Rate, err = parsePositive(val)
			case "shape":
				c.Shape, err = parsePositive(val)
			case "videos":
				if val == "uniform" {
					c.Uniform = true
					c.ZipfAlpha = 0
				} else if alpha, okZ := strings.CutPrefix(val, "zipf:"); okZ {
					c.ZipfAlpha, err = strconv.ParseFloat(alpha, 64)
					if err == nil && (c.ZipfAlpha < 0 || math.IsNaN(c.ZipfAlpha) || math.IsInf(c.ZipfAlpha, 0)) {
						err = fmt.Errorf("zipf exponent %v out of range", c.ZipfAlpha)
					}
				} else {
					err = fmt.Errorf("videos must be uniform or zipf:<alpha>, got %q", val)
				}
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("loadgen: line %d: %s: %w", ln+1, key, err)
			}
		}
		switch {
		case c.Clients <= 0:
			return nil, fmt.Errorf("loadgen: line %d: class %s needs clients >= 1", ln+1, c.Name)
		case c.Clients > maxSpecClients:
			return nil, fmt.Errorf("loadgen: line %d: class %s: %d clients above the %d cap", ln+1, c.Name, c.Clients, maxSpecClients)
		case c.Arrival == "":
			return nil, fmt.Errorf("loadgen: line %d: class %s needs arrival=", ln+1, c.Name)
		case c.Rate <= 0:
			return nil, fmt.Errorf("loadgen: line %d: class %s needs rate > 0", ln+1, c.Name)
		case c.Arrival == ArrivalPoisson && keys["shape"]:
			return nil, fmt.Errorf("loadgen: line %d: class %s: poisson takes no shape", ln+1, c.Name)
		case c.Arrival != ArrivalPoisson && c.Shape <= 0:
			return nil, fmt.Errorf("loadgen: line %d: class %s: %s needs shape > 0", ln+1, c.Name, c.Arrival)
		}
		spec.Classes = append(spec.Classes, c)
	}
	if len(spec.Classes) == 0 {
		return nil, fmt.Errorf("loadgen: spec declares no classes")
	}
	return spec, nil
}

// parsePositive parses a strictly positive finite float.
func parsePositive(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%v is not positive and finite", f)
	}
	return f, nil
}

// maxGeneratedRequests bounds a single generated trace (expected
// count; guards against a spec whose offered load times horizon would
// not fit in memory).
const maxGeneratedRequests = 1 << 26

// Generate materialises the spec as a trace of slots timeslots of
// slotSeconds each over world; an arrival time decides only a request's
// slot. Each client requests from the location of the hotspot it is
// pinned to, so nearest-hotspot aggregation resolves the request to it.
// Users are numbered class by class, and every draw comes from a
// per-(class, client) stats.SplitRand stream derived from seed, so the
// trace is byte-reproducible and editing one class never perturbs
// another.
func (s *Spec) Generate(seed int64, slots int, slotSeconds float64, world *trace.World) (*trace.Trace, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive slot count %d", slots)
	}
	if !(slotSeconds > 0) || math.IsInf(slotSeconds, 0) {
		return nil, fmt.Errorf("loadgen: slot duration %v is not positive and finite", slotSeconds)
	}
	if len(world.Hotspots) == 0 || world.NumVideos <= 0 {
		return nil, fmt.Errorf("loadgen: need hotspots and videos (got %d, %d)", len(world.Hotspots), world.NumVideos)
	}
	horizon := float64(slots) * slotSeconds
	if expected := s.OfferedLoad() * horizon; expected > maxGeneratedRequests {
		return nil, fmt.Errorf("loadgen: spec offers %.0f requests over the horizon, above the %d cap", expected, maxGeneratedRequests)
	}

	tr := &trace.Trace{Slots: slots}
	var user trace.UserID
	for _, c := range s.Classes {
		var videos *stats.Alias
		if !c.Uniform {
			v, err := stats.NewZipf(world.NumVideos, c.ZipfAlpha)
			if err != nil {
				return nil, fmt.Errorf("loadgen: class %s: %w", c.Name, err)
			}
			videos = v
		}
		// Normalise each distribution to mean inter-arrival 1/rate so a
		// class's offered load is clients·rate regardless of shape.
		gammaScale := 1.0 / (c.Shape * c.Rate)
		weibullScale := 1.0 / (c.Rate * math.Gamma(1+1/c.Shape))
		for i := 0; i < c.Clients; i++ {
			rng := stats.SplitRand(seed, "loadgen/"+c.Name+"/"+strconv.Itoa(i))
			at := world.Hotspots[rng.Int63n(int64(len(world.Hotspots)))].Location
			id := user
			user++
			for t := 0.0; ; {
				switch c.Arrival {
				case ArrivalPoisson:
					t += stats.SampleExp(rng, c.Rate)
				case ArrivalGamma:
					t += stats.SampleGamma(rng, c.Shape, gammaScale)
				default:
					t += stats.SampleWeibull(rng, c.Shape, weibullScale)
				}
				if t >= horizon {
					break
				}
				var video int
				if videos != nil {
					video = videos.Sample(rng)
				} else {
					video = int(rng.Int63n(int64(world.NumVideos)))
				}
				tr.Requests = append(tr.Requests, trace.Request{
					ID:       len(tr.Requests),
					User:     id,
					Video:    trace.VideoID(video),
					Location: at,
					Slot:     int(t / slotSeconds),
				})
			}
		}
	}
	return tr, nil
}
