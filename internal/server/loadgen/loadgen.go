// Package loadgen replays an offline trace against a running online
// scheduling server (internal/server) deterministically: each
// timeslot's requests are POSTed to /ingest (concurrently — per-slot
// demand counts commute, so posting order cannot change the resulting
// plan), then the slot boundary is forced with POST /admin/advance,
// which blocks until the slot's plan is live. The per-slot report
// carries the served plan's epoch and digest so harnesses can compare
// the replay against an offline sim.Run of the same trace byte for
// byte. OfflinePlans is that reference, and CrashDrill the one
// kill/restart differential every durability check is a caller of.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Options tunes a replay.
type Options struct {
	// Workers is the number of concurrent ingest posters per slot.
	// 0 selects 4.
	Workers int
	// Client issues the HTTP requests. Nil selects a default client.
	Client *http.Client
	// ByHotspot posts {"hotspot":h} aggregation instead of the request
	// location. Off by default: posting x/y exercises the server's
	// nearest-hotspot resolution (the same code path the simulator
	// aggregates with).
	ByHotspot bool
	// Targets, when non-empty, is the full list of frontend base URLs
	// ingest posts rotate across round-robin (a multi-instance serving
	// tier accepts any request at any frontend). Slot boundaries are
	// still forced through baseURL. Empty selects baseURL alone.
	Targets []string
	// Pace, when positive, makes DriveOpenLoopContext post each
	// generated request on its arrival schedule, sleeping until
	// At/Pace from the drive's start (Pace 1 replays in real time,
	// Pace 10 ten times faster). 0 posts as fast as the workers go.
	// Only open-loop drives honour it.
	Pace float64
}

// resolve applies the defaults: 4 workers, a private client, baseURL as
// the only target.
func (o Options) resolve(baseURL string) (int, *http.Client, []string) {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if len(o.Targets) == 0 {
		o.Targets = []string{baseURL}
	}
	return o.Workers, o.Client, o.Targets
}

// SlotReport is the outcome of replaying one timeslot.
type SlotReport struct {
	Slot     int   `json:"slot"`
	Sent     int   `json:"sent"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	// Scheduled reports whether the advance produced a plan for this
	// slot (false for slots with no accepted requests).
	Scheduled bool   `json:"scheduled"`
	Epoch     int64  `json:"epoch"`
	Digest    string `json:"digest"`
}

// Report is the outcome of a full replay.
type Report struct {
	Slots    []SlotReport `json:"slots"`
	Sent     int          `json:"sent"`
	Accepted int64        `json:"accepted"`
	Rejected int64        `json:"rejected"`
}

// ingestBody mirrors the server's wire form.
type ingestBody struct {
	User    int64    `json:"user"`
	Video   int64    `json:"video"`
	Hotspot *int64   `json:"hotspot,omitempty"`
	X       *float64 `json:"x,omitempty"`
	Y       *float64 `json:"y,omitempty"`
}

// Replay drives the full trace through the server at baseURL
// ("http://host:port"), slot by slot. Any HTTP or transport failure
// aborts the replay; 429 rejections are counted, not retried, so a
// harness asserting byte-identity should size the server's QueueBound
// above the largest slot.
func Replay(baseURL string, world *trace.World, tr *trace.Trace, opts Options) (*Report, error) {
	if err := tr.Validate(world); err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	workers, client, targets := opts.resolve(baseURL)
	// Drop the keep-alive pool once the drive completes: conns left
	// behind (including spare dials that never carried a request) keep
	// the tier's graceful Shutdown waiting out its drain deadline.
	defer client.CloseIdleConnections()

	report := &Report{}
	for slot, reqs := range tr.BySlot() {
		sr, err := replaySlot(client, baseURL, targets, slot, reqs, workers, opts.ByHotspot, world)
		if err != nil {
			return report, err
		}
		report.Slots = append(report.Slots, sr)
		report.Sent += sr.Sent
		report.Accepted += sr.Accepted
		report.Rejected += sr.Rejected
	}
	return report, nil
}

// replaySlot encodes one slot's requests and drives them through the
// tier.
func replaySlot(client *http.Client, baseURL string, targets []string, slot int, reqs []trace.Request, workers int, byHotspot bool, world *trace.World) (SlotReport, error) {
	var index *geo.Grid
	if byHotspot {
		g, err := world.Index()
		if err != nil {
			return SlotReport{Slot: slot, Sent: len(reqs)}, fmt.Errorf("loadgen: %w", err)
		}
		index = g
	}
	bodies, err := encodeSlot(reqs, index)
	if err != nil {
		return SlotReport{Slot: slot, Sent: len(reqs)}, err
	}
	return driveSlot(client, baseURL, targets, slot, bodies, workers)
}

// encodeSlot renders requests in the ingest wire form: by location, or
// (index non-nil) pre-resolved to their nearest hotspot.
func encodeSlot(reqs []trace.Request, index *geo.Grid) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		body := ingestBody{User: int64(req.User), Video: int64(req.Video)}
		if index != nil {
			h, _, ok := index.Nearest(req.Location)
			if !ok {
				return nil, fmt.Errorf("loadgen: no hotspot for request %d", req.ID)
			}
			hh := int64(h)
			body.Hotspot = &hh
		} else {
			x, y := req.Location.X, req.Location.Y
			body.X, body.Y = &x, &y
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		bodies[i] = data
	}
	return bodies, nil
}

// driveSlot posts one slot's pre-encoded ingest bodies (rotating across
// targets) and forces the slot boundary through baseURL.
func driveSlot(client *http.Client, baseURL string, targets []string, slot int, bodies [][]byte, workers int) (SlotReport, error) {
	sr := SlotReport{Slot: slot, Sent: len(bodies)}
	var accepted, rejected, rr atomic.Int64
	errs := make(chan error, workers)
	work := make(chan []byte)
	var wg sync.WaitGroup
	// failed makes workers drain the channel without posting once any
	// of them errors, so the feeding loop below never blocks.
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				if failed.Load() {
					continue
				}
				target := targets[int(uint64(rr.Add(1)-1)%uint64(len(targets)))]
				status, err := postIngest(client, target, body)
				if err != nil {
					failed.Store(true)
					select {
					case errs <- err:
					default:
					}
					continue
				}
				switch status {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					failed.Store(true)
					select {
					case errs <- fmt.Errorf("loadgen: ingest status %d", status):
					default:
					}
				}
			}
		}()
	}
	for _, body := range bodies {
		work <- body
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return sr, err
	default:
	}
	sr.Accepted = accepted.Load()
	sr.Rejected = rejected.Load()
	return closeSlot(client, baseURL, sr)
}

// closeSlot forces the slot boundary through baseURL and records the
// outcome in sr.
func closeSlot(client *http.Client, baseURL string, sr SlotReport) (SlotReport, error) {
	adv, err := advance(client, baseURL)
	if err != nil {
		return sr, err
	}
	sr.Scheduled, sr.Epoch, sr.Digest = adv.Scheduled, adv.Epoch, adv.Digest
	return sr, nil
}

// postIngest sends one pre-encoded body and returns the HTTP status.
func postIngest(client *http.Client, target string, body []byte) (int, error) {
	resp, err := client.Post(target+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("loadgen: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// advanceResponse is POST /admin/advance's reply.
type advanceResponse struct {
	Slot      int    `json:"slot"`
	Scheduled bool   `json:"scheduled"`
	Epoch     int64  `json:"epoch"`
	Digest    string `json:"digest"`
}

// advance forces one slot boundary.
func advance(client *http.Client, baseURL string) (advanceResponse, error) {
	var out advanceResponse
	resp, err := client.Post(baseURL+"/admin/advance", "application/json", nil)
	if err != nil {
		return out, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("loadgen: advance status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("loadgen: decoding advance reply: %w", err)
	}
	return out, nil
}
