// Package loadgen replays an offline trace against a running online
// scheduling server (internal/server) deterministically: each
// timeslot's requests are POSTed to /ingest (concurrently — per-slot
// demand counts commute, so posting order cannot change the resulting
// plan), then the slot boundary is forced with POST /admin/advance,
// which blocks until the slot's plan is live. The per-slot report
// carries the served plan's epoch and digest so harnesses can compare
// the replay against an offline sim.Run of the same trace byte for
// byte. OfflinePlans is that reference, and CrashDrill the one
// kill/restart differential every durability check is a caller of. A
// workload Spec generates a trace too, so it takes the same path.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Options tunes a replay.
type Options struct {
	// Targets, when non-empty, is the full list of frontend base URLs
	// ingest posts rotate across round-robin (a multi-instance serving
	// tier accepts any request at any frontend). Slot boundaries are
	// still forced through baseURL. Empty selects baseURL alone.
	Targets []string
}

// workers is the number of concurrent ingest posters per slot.
const workers = 8

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

// ingestBody mirrors the server's by-location wire form.
type ingestBody struct {
	User  int64   `json:"user"`
	Video int64   `json:"video"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// Replay drives the full trace through the server at baseURL
// ("http://host:port"), slot by slot. Any HTTP or transport failure
// aborts the replay, returning the report up to and including the
// failed slot; 429 rejections are counted, not retried, so a harness
// asserting byte-identity should size the server's QueueBound above the
// largest slot.
func Replay(baseURL string, world *trace.World, tr *trace.Trace, opts Options) (*Report, error) {
	if err := tr.Validate(world); err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	client, targets := &http.Client{}, opts.Targets
	if len(targets) == 0 {
		targets = []string{baseURL}
	}
	// Drop the keep-alive pool once the drive completes: conns left
	// behind (including spare dials that never carried a request) keep
	// the tier's graceful Shutdown waiting out its drain deadline.
	defer client.CloseIdleConnections()

	report := &Report{}
	for slot, reqs := range tr.BySlot() {
		bodies, err := encodeSlot(reqs)
		if err != nil {
			return report, err
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

// encodeSlot renders requests in the ingest wire form, by location:
// the server resolves each to its nearest hotspot, the same code path
// the simulator aggregates with.
func encodeSlot(reqs []trace.Request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		data, err := json.Marshal(ingestBody{User: int64(req.User), Video: int64(req.Video), X: req.Location.X, Y: req.Location.Y})
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		bodies[i] = data
	}
	return bodies, nil
}

// driveSlot posts one slot's pre-encoded ingest bodies (rotating across
// targets) and forces the slot boundary through baseURL.
func driveSlot(client *http.Client, baseURL string, targets []string, slot int, bodies [][]byte) (SlotReport, error) {
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
