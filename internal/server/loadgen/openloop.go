package loadgen

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/stats"
)

// Open-loop generation: every client draws requests from its own
// arrival process, independent of how fast the server answers — the
// ServeGen discipline. The schedule is materialised up front (Generate)
// so the same spec, seed, and horizon always produce the byte-identical
// request stream; an arrival time decides only the request's slot, and
// DriveOpenLoop posts each slot as fast as its posters go rather than
// on the schedule.

// GenRequest is one generated request, pre-resolved to its aggregation
// hotspot (open-loop clients are stationary: each client draws its
// hotspot once).
type GenRequest struct {
	User    int64
	Video   int64
	Hotspot int64
}

// AppendJSON appends the request's ingest wire form to b.
func (r GenRequest) AppendJSON(b []byte) []byte {
	b = append(b, `{"user":`...)
	b = strconv.AppendInt(b, r.User, 10)
	b = append(b, `,"video":`...)
	b = strconv.AppendInt(b, r.Video, 10)
	b = append(b, `,"hotspot":`...)
	b = strconv.AppendInt(b, r.Hotspot, 10)
	b = append(b, '}')
	return b
}

// Stream is a materialised open-loop request schedule, bucketed by
// timeslot.
type Stream struct {
	// Slots[s] holds slot s's requests, ordered by (class, client,
	// arrival time) — deterministic, and demand counts commute so the
	// order never affects plans.
	Slots [][]GenRequest
	// Total is the request count across all slots.
	Total int
}

// maxStreamRequests bounds a single generated stream (expected count;
// guards against a spec whose offered load times horizon would not fit
// in memory).
const maxStreamRequests = 1 << 26

// Generate materialises the spec's request stream: slots timeslots of
// slotSeconds each, clients pinned to hotspots in [0, numHotspots),
// videos drawn from each class's popularity distribution over
// [0, numVideos). Every random draw comes from a per-(class, client)
// stats.SplitRand stream derived from seed, so the stream is
// byte-reproducible and editing one class never perturbs another.
func (s *Spec) Generate(seed int64, slots int, slotSeconds float64, numHotspots, numVideos int) (*Stream, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive slot count %d", slots)
	}
	if !(slotSeconds > 0) || math.IsInf(slotSeconds, 0) {
		return nil, fmt.Errorf("loadgen: slot duration %v is not positive and finite", slotSeconds)
	}
	if numHotspots <= 0 || numVideos <= 0 {
		return nil, fmt.Errorf("loadgen: need hotspots and videos (got %d, %d)", numHotspots, numVideos)
	}
	horizon := float64(slots) * slotSeconds
	if expected := s.OfferedLoad() * horizon; expected > maxStreamRequests {
		return nil, fmt.Errorf("loadgen: spec offers %.0f requests over the horizon, above the %d cap", expected, maxStreamRequests)
	}

	out := &Stream{Slots: make([][]GenRequest, slots)}
	var user int64
	for _, c := range s.Classes {
		var videos *stats.Alias
		if !c.Uniform {
			v, err := stats.NewZipf(numVideos, c.ZipfAlpha)
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
			hotspot := rng.Int63n(int64(numHotspots))
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
				video := int64(0)
				if videos != nil {
					video = int64(videos.Sample(rng))
				} else {
					video = rng.Int63n(int64(numVideos))
				}
				slot := int(t / slotSeconds)
				out.Slots[slot] = append(out.Slots[slot], GenRequest{User: id, Video: video, Hotspot: hotspot})
				out.Total++
			}
		}
	}
	return out, nil
}

// DriveOpenLoop posts a generated stream through a serving tier slot by
// slot: each slot's requests fan out across opts.Targets (defaulting to
// baseURL alone) as fast as the posters go, then the slot boundary is
// forced through baseURL. Reporting matches Replay's.
func DriveOpenLoop(baseURL string, stream *Stream, opts Options) (*Report, error) {
	client, targets := &http.Client{}, opts.targets(baseURL)
	// See Replay: lingering keep-alives stall the tier's Shutdown.
	defer client.CloseIdleConnections()
	report := &Report{}
	var scratch []byte
	for slot, reqs := range stream.Slots {
		bodies := make([][]byte, len(reqs))
		for i, r := range reqs {
			scratch = r.AppendJSON(scratch[:0])
			bodies[i] = append([]byte(nil), scratch...)
		}
		sr, err := driveSlot(client, baseURL, targets, slot, bodies)
		report.Slots = append(report.Slots, sr)
		report.Sent += sr.Sent
		report.Accepted += sr.Accepted
		report.Rejected += sr.Rejected
		if err != nil {
			return report, err
		}
	}
	return report, nil
}
