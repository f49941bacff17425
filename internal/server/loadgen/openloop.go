package loadgen

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
)

// Open-loop generation: every client injects requests on its own
// arrival process's schedule, independent of how fast the server
// answers — the ServeGen discipline, where load does not degrade
// gracefully just because the system under test slowed down. The
// schedule is materialised up front (Generate) so the same spec, seed,
// and horizon always produce the byte-identical request stream,
// whatever the transport later does with it.

// GenRequest is one generated request, pre-resolved to its aggregation
// hotspot (open-loop clients are stationary: each client draws its
// hotspot once).
type GenRequest struct {
	User    int64
	Video   int64
	Hotspot int64
	// At is the arrival offset in seconds from the stream's start
	// (paced drives sleep until it; the unpaced drive ignores it).
	At float64
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
				out.Slots[slot] = append(out.Slots[slot], GenRequest{User: id, Video: video, Hotspot: hotspot, At: t})
				out.Total++
			}
		}
	}
	return out, nil
}

// DriveOpenLoop posts a generated stream through a serving tier slot by
// slot: each slot's requests fan out across opts.Targets (defaulting to
// baseURL alone), then the slot boundary is forced through baseURL.
// Reporting matches Replay's.
func DriveOpenLoop(baseURL string, stream *Stream, opts Options) (*Report, error) {
	return DriveOpenLoopContext(context.Background(), baseURL, stream, opts)
}

// DriveOpenLoopContext is DriveOpenLoop bounded by ctx: cancellation
// is honoured between slots, between posts, and — in paced mode —
// during the inter-arrival sleeps themselves, so a paced drive never
// outlives its caller by a sleep. With opts.Pace > 0 each request is
// posted on its generated arrival time (sleeping At/Pace from the
// drive's start, single in-order poster — the open-loop discipline);
// with Pace 0 requests are fanned out as fast as the workers go.
func DriveOpenLoopContext(ctx context.Context, baseURL string, stream *Stream, opts Options) (*Report, error) {
	workers, client, targets := opts.resolve(baseURL)
	// See Replay: lingering keep-alives stall the tier's Shutdown.
	defer client.CloseIdleConnections()
	report := &Report{}
	var scratch []byte
	start := time.Now()
	for slot, reqs := range stream.Slots {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		var sr SlotReport
		var err error
		if opts.Pace > 0 {
			sr, err = drivePacedSlot(ctx, client, baseURL, targets, slot, reqs, opts.Pace, start)
		} else {
			bodies := make([][]byte, len(reqs))
			for i, r := range reqs {
				scratch = r.AppendJSON(scratch[:0])
				bodies[i] = append([]byte(nil), scratch...)
			}
			sr, err = driveSlot(client, baseURL, targets, slot, bodies, workers)
		}
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

// drivePacedSlot posts one slot's requests in arrival order, sleeping
// until each request's scaled arrival offset. Every sleep selects on
// ctx, so cancellation interrupts the drive mid-sleep.
func drivePacedSlot(ctx context.Context, client *http.Client, baseURL string, targets []string, slot int, reqs []GenRequest, pace float64, start time.Time) (SlotReport, error) {
	sorted := append([]GenRequest(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	sr := SlotReport{Slot: slot, Sent: len(reqs)}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var scratch []byte
	for i, r := range sorted {
		d := time.Duration(r.At/pace*float64(time.Second)) - time.Since(start)
		if d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return sr, ctx.Err()
			}
		} else if err := ctx.Err(); err != nil {
			// Behind schedule: no sleep to interrupt, but cancellation
			// still stops the burst.
			return sr, err
		}
		scratch = r.AppendJSON(scratch[:0])
		status, err := postIngest(client, targets[i%len(targets)], scratch)
		if err != nil {
			return sr, err
		}
		switch status {
		case http.StatusAccepted:
			sr.Accepted++
		case http.StatusTooManyRequests:
			sr.Rejected++
		default:
			return sr, fmt.Errorf("loadgen: ingest status %d", status)
		}
	}
	return closeSlot(client, baseURL, sr)
}
