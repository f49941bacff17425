package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/trace"
)

// ingestScratch is the per-request reusable buffer pair the hot HTTP
// paths decode into and encode responses from. Pooling it keeps the
// steady-state ingest path free of body-buffer growth and response
// marshalling allocations (measured by the ServerIngest and
// ServerIngestParallel benchmarks).
type ingestScratch struct {
	body []byte
	resp []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{body: make([]byte, 0, 512), resp: make([]byte, 0, 96)}
}}

func getScratch() *ingestScratch   { return scratchPool.Get().(*ingestScratch) }
func putScratch(sc *ingestScratch) { scratchPool.Put(sc) }

// readBody reads a request body into buf (reusing its capacity),
// enforcing the configured size cap via http.MaxBytesReader so
// oversized bodies still surface as *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ingestRequest is the wire form of one POST /ingest body. The request
// names its aggregation point either explicitly ("hotspot") or by user
// location ("x"/"y" in km), in which case the server resolves the
// nearest hotspot exactly as the offline simulator does.
type ingestRequest struct {
	User    int64    `json:"user"`
	Video   int64    `json:"video"`
	Hotspot *int64   `json:"hotspot"`
	X       *float64 `json:"x"`
	Y       *float64 `json:"y"`
}

// decodeIngest parses one ingest body. It is strict — unknown fields
// and trailing data are rejected — and must never panic, whatever the
// bytes (FuzzIngest holds it to that).
func decodeIngest(data []byte) (ingestRequest, error) {
	var req ingestRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ingestRequest{}, fmt.Errorf("malformed body: %w", err)
	}
	if dec.More() {
		return ingestRequest{}, fmt.Errorf("trailing data after request object")
	}
	return req, nil
}

// resolveIngest validates the request against the world and returns the
// aggregation hotspot and video. Nearest-hotspot resolution uses the
// same spatial index as sim.BuildSlotContext, so a replayed trace
// aggregates identically online and offline.
func resolveIngest(world *trace.World, index *geo.Grid, req ingestRequest) (hotspot int, video trace.VideoID, err error) {
	if req.Video < 0 || req.Video >= int64(world.NumVideos) {
		return 0, 0, fmt.Errorf("video %d outside [0, %d)", req.Video, world.NumVideos)
	}
	if req.Hotspot != nil {
		h := *req.Hotspot
		if h < 0 || h >= int64(len(world.Hotspots)) {
			return 0, 0, fmt.Errorf("hotspot %d outside [0, %d)", h, len(world.Hotspots))
		}
		return int(h), trace.VideoID(req.Video), nil
	}
	if req.X == nil || req.Y == nil {
		return 0, 0, fmt.Errorf("need either hotspot or both x and y")
	}
	x, y := *req.X, *req.Y
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, 0, fmt.Errorf("non-finite location (%v, %v)", x, y)
	}
	h, _, ok := index.Nearest(geo.Point{X: x, Y: y})
	if !ok {
		return 0, 0, fmt.Errorf("no hotspot indexed")
	}
	return h, trace.VideoID(req.Video), nil
}

// acceptDemand is the accepted-ingest path behind POST /ingest: bound
// check, accumulation into the owning frontend's slot demand, and —
// when durability is on — WAL logging. The record is appended under
// the frontend's lock, in the same hold as the Add (so a capture
// holding every frontend's lock reads a log position that cuts
// between applied-and-logged requests and later ones), and is
// group-committed after the lock is released, before the 202
// acknowledgment. A Sync failure refuses the acknowledgment: the
// request may be double-counted on retry, but an acknowledged request
// is always part of the durable prefix. ok=false without an error
// means the frontend is at its bound (the caller answers 429).
func (s *Server) acceptDemand(owner *instance, h trace.HotspotID, v trace.VideoID) (ok bool, err error) {
	owner.mu.Lock()
	if owner.pending >= int64(s.cfg.QueueBound) {
		owner.mu.Unlock()
		return false, nil
	}
	var lsn uint64
	if s.wal != nil {
		lsn, err = s.wal.AppendIngest(owner.slot, owner.id, 0, int(h), int(v), 1)
		if err != nil {
			owner.mu.Unlock()
			s.walErrors.Inc()
			return false, err
		}
	}
	owner.demand.Add(h, v, 1)
	owner.pending++
	owner.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Sync(lsn); err != nil {
			s.walErrors.Inc()
			return false, err
		}
	}
	return true, nil
}

// handOver closes the frontend's slot: it folds and returns the demand
// accepted since the last boundary — the very object ingest accumulated
// into, now owned by the caller — and the request count behind it, and
// leaves the frontend accumulating into a fresh one tagged newSlot. A
// frontend that accepted nothing hands over nil.
func (in *instance) handOver(newSlot int) (*core.Demand, int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.slot = newSlot
	if in.pending == 0 {
		return nil, 0
	}
	d, n := in.demand, in.pending
	d.Fold()
	in.demand = core.NewDemand(d.NumHotspots())
	in.pending = 0
	return d, n
}
