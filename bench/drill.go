package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// The recovery drill's WAL settings: a checkpoint lands after the
// second slot, so recovery loads a checkpoint and replays one and a
// half slots of records on top of it. The short flush interval only
// makes the log's tail reach the disk soon after the feed, so every
// restart finds the same, complete, durable prefix.
const (
	drillFsyncInterval   = 10 * time.Millisecond
	drillCheckpointEvery = 2
	drillFullSlots       = 3
)

// nopWriter discards a handler's response and keeps its status.
type nopWriter struct {
	h      http.Header
	status int
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(status int)      { w.status = status }

// resetBody adapts a resettable bytes.Reader to a request body.
type resetBody struct{ *bytes.Reader }

func (resetBody) Close() error { return nil }

// feeder calls a frontend's handler without a socket: one reused POST
// /ingest request, one reused no-op writer, the body formatted into
// one scratch buffer.
type feeder struct {
	h    http.Handler
	req  *http.Request
	rd   *bytes.Reader
	w    nopWriter
	body []byte
}

func newFeeder(h http.Handler) *feeder {
	f := &feeder{h: h, rd: bytes.NewReader(nil), w: nopWriter{h: make(http.Header, 4)}}
	f.req = httptest.NewRequest(http.MethodPost, "/ingest", nil)
	f.req.Body = resetBody{f.rd}
	return f
}

// post serves one pre-formatted ingest body and returns the status.
func (f *feeder) post(body []byte) int {
	f.rd.Reset(body)
	f.req.ContentLength = int64(len(body))
	f.w.status = 0
	clear(f.w.h)
	f.h.ServeHTTP(&f.w, f.req)
	return f.w.status
}

func (f *feeder) ingest(q *trace.Request) int {
	f.body = appendIngestBody(f.body[:0], int(q.User), int(q.Video), q.Location.X, q.Location.Y)
	return f.post(f.body)
}

// drillState is what the drill's crashed server left durable.
type drillState struct {
	cfg     server.Config
	epoch   int64
	digest  string
	pending int64
	// records is how many WAL records the cycles so far replayed.
	records int
}

// prepareDrill builds a WAL-backed twin of the workload's serving tier
// in dir, feeds it three slots (AdvanceSlot after each) and half a
// slot more without a socket, waits until the log is durable, and
// kills it. Nothing here is timed.
func prepareDrill(o options, r *rig, dir string) (*drillState, error) {
	cfg := o.workload.serverConfig(r.world, obs.NewRegistry(), dir)
	cfg.FsyncInterval = drillFsyncInterval
	cfg.CheckpointEvery = drillCheckpointEvery
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	feeders := make([]*feeder, o.workload.instances)
	for i := range feeders {
		feeders[i] = newFeeder(srv.InstanceHandler(i))
	}
	feed := func(reqs []trace.Request) error {
		for j := range reqs {
			if status := feeders[j%len(feeders)].ingest(&reqs[j]); status != http.StatusAccepted {
				srv.Kill()
				return fmt.Errorf("feeding the drill: ingest status %d", status)
			}
		}
		return nil
	}
	st := &drillState{cfg: cfg}
	for k := 0; k < drillFullSlots; k++ {
		if err := feed(r.bySlot[k%len(r.bySlot)]); err != nil {
			return nil, err
		}
		_, rec, err := srv.AdvanceSlot(context.Background())
		if err != nil {
			srv.Kill()
			return nil, err
		}
		st.epoch, st.digest = rec.Epoch, rec.Digest
	}
	half := r.bySlot[drillFullSlots%len(r.bySlot)]
	half = half[:len(half)/2]
	if err := feed(half); err != nil {
		return nil, err
	}
	st.pending = int64(len(half))

	// Wait for the flusher to make the whole log durable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rr := httptest.NewRecorder()
		srv.InstanceHandler(0).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var health struct {
			WAL struct {
				Appended uint64 `json:"appended_lsn"`
				Durable  uint64 `json:"durable_lsn"`
			} `json:"wal"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
			srv.Kill()
			return nil, fmt.Errorf("reading /healthz: %w", err)
		}
		if health.WAL.Appended > 0 && health.WAL.Durable == health.WAL.Appended {
			break
		}
		if time.Now().After(deadline) {
			srv.Kill()
			return nil, fmt.Errorf("WAL still at durable LSN %d of %d", health.WAL.Durable, health.WAL.Appended)
		}
		time.Sleep(drillFsyncInterval)
	}
	srv.Kill()
	return st, nil
}

// restartCycles times crash recovery as a user sees it, n times: from
// server.New on the crashed server's directory, through Start, to the
// first GET /redirect answered over a fresh connection — which must
// carry the epoch and digest of the last durable plan. Every cycle ends
// in Kill, so the next one recovers the same state; a cycle that
// recovers a different state fails the run.
func (st *drillState) restartCycles(n int, q trace.Request) ([]float64, error) {
	wantEpoch := append(strconv.AppendInt([]byte(`"epoch":`), st.epoch, 10), ',')
	wantDigest := []byte(`"digest":"` + st.digest + `"`)
	var restartMS []float64
	for k := 0; k < n; k++ {
		cfg := st.cfg
		cfg.Registry = obs.NewRegistry()
		t0 := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		c, err := dial(srv.Addr())
		if err != nil {
			srv.Kill()
			return nil, err
		}
		status, body, err := c.redirect(int(q.Video), 0)
		elapsed := time.Since(t0)
		c.close() // body stays readable: it aliases the client's buffer
		ws := srv.WALState()
		srv.Kill()
		switch {
		case err != nil:
			return nil, fmt.Errorf("first redirect: %w", err)
		case status != http.StatusOK || !bytes.Contains(body, wantEpoch) || !bytes.Contains(body, wantDigest):
			return nil, fmt.Errorf("first redirect answered %d %q, want epoch %d digest %s", status, body, st.epoch, st.digest)
		case ws == nil || ws.Plan == nil || ws.Epoch != st.epoch:
			return nil, fmt.Errorf("recovered no plan of epoch %d", st.epoch)
		case ws.PendingRequests != st.pending:
			return nil, fmt.Errorf("recovered %d pending requests, %d were acknowledged", ws.PendingRequests, st.pending)
		case st.records > 0 && ws.Records != st.records:
			return nil, fmt.Errorf("replayed %d records, the cycle before %d", ws.Records, st.records)
		}
		st.records = ws.Records
		restartMS = append(restartMS, elapsed.Seconds()*1e3)
	}
	return restartMS, nil
}
