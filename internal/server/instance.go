package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// instance is one frontend of the serving tier. Each instance owns the
// slot demand of the hotspots Server.owner assigns it (one
// core.Demand under one lock, handed to the scheduler whole at every
// slot boundary), its own HTTP listener, and its own pointer to the
// serving plan, which Server.publish swaps to the one table it built
// for the epoch. All instances answer the full API; lookups are routed
// by the router of the plan the pointer holds, which every frontend
// shares.
type instance struct {
	id  int
	srv *Server

	// mu guards the accumulator: everything an accepted ingest touches.
	mu sync.Mutex
	// demand counts the requests accepted since the last slot boundary
	// (only hotspots this frontend owns appear).
	demand *core.Demand
	// pending is the number of those requests; the backpressure bound
	// applies to it.
	pending int64
	// slot tags the timeslot demand is accumulating for; handOver
	// re-stamps it at every boundary. WAL ingest records carry it so
	// recovery can place each accepted request in the right slot.
	slot int

	// current is the plan this frontend serves, swapped atomically by
	// Server.publish. Lookups only ever Load it.
	current atomic.Pointer[servingPlan]

	httpSrv *http.Server
	ln      net.Listener

	// cached per-instance counters (server.shard.<id>.*): registry
	// lookups are off the request hot path.
	accepted  *obs.Counter // requests accumulated into this instance's demand
	forwarded *obs.Counter // arrived here, owned by (and routed to) another instance
	swaps     *obs.Counter // plans installed
	rejects   *obs.Counter // epochs refused by verification
	lookups   *obs.Counter // redirect lookups answered by this frontend
}

// newInstance builds frontend id with its own accumulator and counters.
func newInstance(s *Server, id int) *instance {
	in := &instance{id: id, srv: s, demand: core.NewDemand(len(s.world.Hotspots))}
	pfx := "server.shard." + strconv.Itoa(id) + "."
	in.accepted = s.reg.Counter(pfx + "accepted")
	in.forwarded = s.reg.Counter(pfx + "forwarded")
	in.swaps = s.reg.Counter(pfx + "swaps")
	in.rejects = s.reg.Counter(pfx + "plan_rejects")
	in.lookups = s.reg.Counter(pfx + "lookups")
	return in
}

// owner is the frontend that accumulates hotspot h's demand: h mod N.
// The frontend set is fixed at boot, so the rule needs no ring; the
// ownership itself keeps each hotspot's row on one frontend, which is
// what lets the slot boundary's Demand.Merge adopt whole rows.
func (s *Server) owner(h int) *instance { return s.instances[h%len(s.instances)] }

// listen starts this frontend's HTTP server on addr.
func (in *instance) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: instance %d: %w", in.id, err)
	}
	in.ln = ln
	in.httpSrv = &http.Server{Handler: in.handler(), ReadHeaderTimeout: 5 * time.Second}
	in.srv.wg.Add(1)
	go func() {
		defer in.srv.wg.Done()
		if err := in.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			in.srv.reg.Counter("server.http.errors").Inc()
		}
	}()
	return nil
}

// shutdown stops this frontend's HTTP server, bounded by ctx.
func (in *instance) shutdown(ctx context.Context) error {
	if in.httpSrv == nil {
		return nil
	}
	return in.httpSrv.Shutdown(ctx)
}

// handler builds this frontend's HTTP API. Every instance serves the
// same routes; ingest and redirect act on instance-local state, the
// admin and history routes on the shared scheduler:
//
//	POST /ingest         accept one request ({"user","video","x","y"}
//	                     or {"user","video","hotspot"}) — 202 accepted,
//	                     429 overloaded (frontend queue full), 400 malformed
//	GET  /redirect       ?video=V&hotspot=H → serving target for one
//	                     request aggregated at H ({"target":-1} = CDN)
//	GET  /plans          retained per-slot plan records (canonical bytes)
//	GET  /healthz        liveness + slot/epoch counters + this
//	                     frontend's serving (epoch, digest) and its
//	                     accepted-but-unscheduled request count
//	POST /admin/advance  force a slot boundary; returns the new record
func (in *instance) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", in.handleIngest)
	mux.HandleFunc("GET /redirect", in.handleRedirect)
	mux.HandleFunc("GET /plans", in.srv.handlePlans)
	mux.HandleFunc("GET /healthz", in.handleHealthz)
	mux.HandleFunc("POST /admin/advance", in.srv.handleAdvance)
	return mux
}

func (in *instance) handleIngest(w http.ResponseWriter, r *http.Request) {
	s := in.srv
	sc := getScratch()
	defer putScratch(sc)
	body, err := readBody(w, r, maxBodyBytes, sc.body[:0])
	sc.body = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reg.Counter("server.ingest.oversized").Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "body too large"})
			return
		}
		s.ingestMalformed.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body"})
		return
	}
	req, err := decodeIngest(body)
	if err != nil {
		s.ingestMalformed.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	h, v, err := resolveIngest(s.world, s.index, req)
	if err != nil {
		s.ingestMalformed.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// A request may arrive at any frontend and is accumulated at its
	// hotspot's owner.
	owner := s.owner(h)
	ok, werr := s.acceptDemand(owner, trace.HotspotID(h), v)
	if werr != nil {
		// Durability failure: the request must not be acknowledged as
		// accepted, because a crash could lose it.
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "durability failure, retry"})
		return
	}
	if !ok {
		// Backpressure: the owning frontend is at its bound until the
		// next slot boundary takes its demand. The rejection is visible (429 + counter),
		// never a silent drop.
		s.ingestRejected.Inc()
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "ingest queue full, retry next slot"})
		return
	}
	s.ingestAccepted.Inc()
	owner.accepted.Inc()
	if owner != in {
		in.forwarded.Inc()
	}
	sc.resp = append(sc.resp[:0], `{"hotspot":`...)
	sc.resp = strconv.AppendInt(sc.resp, int64(h), 10)
	sc.resp = append(sc.resp, '}', '\n')
	writeRawJSON(w, http.StatusAccepted, sc.resp)
}

func (in *instance) handleRedirect(w http.ResponseWriter, r *http.Request) {
	s := in.srv
	q := r.URL.Query()
	video, err := strconv.Atoi(q.Get("video"))
	if err != nil || video < 0 || video >= s.world.NumVideos {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "video outside the catalogue"})
		return
	}
	hotspot, err := strconv.Atoi(q.Get("hotspot"))
	if err != nil || hotspot < 0 || hotspot >= len(s.world.Hotspots) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "hotspot outside the fleet"})
		return
	}
	sp := in.current.Load()
	target := sp.lookup(hotspot, video)
	s.lookupTotal.Inc()
	in.lookups.Inc()
	switch target {
	case CDN:
		s.lookupCDN.Inc()
	case hotspot:
		s.lookupLocal.Inc()
	default:
		s.lookupRedirect.Inc()
	}
	sc := getScratch()
	defer putScratch(sc)
	b := append(sc.resp[:0], `{"target":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	if sp != nil {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, sp.epoch, 10)
		b = append(b, `,"slot":`...)
		b = strconv.AppendInt(b, int64(sp.slot), 10)
		b = append(b, `,"digest":"`...)
		b = appendDigest(b, sp.digest)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	sc.resp = b
	writeRawJSON(w, http.StatusOK, b)
}

func (in *instance) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s := in.srv
	s.mu.Lock()
	slot, epoch := s.slot, s.epoch
	s.mu.Unlock()
	in.mu.Lock()
	pending := in.pending
	in.mu.Unlock()
	resp := map[string]any{
		"status":    "ok",
		"slot":      slot,
		"epoch":     epoch,
		"instance":  in.id,
		"pending":   pending,
		"instances": len(s.instances),
	}
	if sp := in.current.Load(); sp != nil {
		resp["serving_epoch"] = sp.epoch
		resp["digest"] = digestString(sp.digest)
	}
	if s.wal != nil {
		walResp := map[string]any{
			"policy":         s.wal.Policy().String(),
			"appended_lsn":   s.wal.LastLSN(),
			"durable_lsn":    s.wal.DurableLSN(),
			"checkpoint_seq": s.wal.CheckpointSeq(),
			"replay_records": s.wal.ReplayRecords(),
		}
		if st := s.walState; st != nil {
			walResp["recovered_records"] = st.Records
			walResp["recover_ms"] = float64(st.Elapsed.Microseconds()) / 1e3
			walResp["recovered_slot"] = st.Slot
			walResp["truncated_bytes"] = st.TruncatedBytes
		}
		resp["wal"] = walResp
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes one JSON response (cold paths; the hot paths build
// their bytes into pooled scratch and use writeRawJSON).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRawJSON writes pre-encoded JSON bytes.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}
