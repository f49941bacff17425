package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// connections is the number of closed-loop clients: one keep-alive
	// loopback TCP connection and one goroutine each. Two, because the
	// sandbox has two CPUs and the load generator shares them with the
	// server.
	connections = 2
	// redirectEvery puts one GET /redirect after every 10th ingest on
	// the same connection: reads beside writes.
	redirectEvery = 10
)

// options are one run's arguments.
type options struct {
	// start is when the run began; the first set-up is timed from it.
	start    time.Time
	workload workload
	scale    scale
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	spans    string
	// inject deliberately breaks the run so that the benchmark's own
	// checks can be tested: "drop-request" withholds one ingest,
	// "corrupt-reference" flips one byte of an offline reference plan.
	inject string
}

// rig is one set-up serving tier with its generated inputs and its
// dialled connections.
type rig struct {
	o      options
	world  *trace.World
	tr     *trace.Trace
	bySlot [][]trace.Request
	reg    *obs.Registry
	srv    *server.Server
	conns  []*client
	// slot is the server's slot counter, epoch the epoch it serves,
	// sent the requests sent so far (warm-up included).
	slot  int
	epoch int64
	sent  int64
	// results are the connections' per-slot buffers, reused from slot
	// to slot so that the serving phase allocates nothing per slot.
	results [connections]connResult
	// shadow re-runs each slot's round in a traced run (see shadowSlot).
	shadow *core.Scheduler
	index  *geo.Grid
	// generateS is the time trace.Generate took, baselineMB the
	// resident set with the inputs generated and no server built.
	generateS  float64
	baselineMB float64
}

// setUp generates the workload's inputs from the seed, builds and
// starts the serving tier, dials the connections and serves the
// warm-up slots. The program under test receives only the generated
// requests.
func setUp(o options, walDir string) (*rig, error) {
	r := &rig{o: o, reg: obs.NewRegistry()}
	t0 := time.Now()
	world, tr, err := trace.Generate(o.workload.traceConfig(o.seed))
	if err != nil {
		return nil, err
	}
	r.generateS = time.Since(t0).Seconds()
	r.world, r.tr, r.bySlot = world, tr, tr.BySlot()
	for s, reqs := range r.bySlot {
		if len(reqs) < connections*redirectEvery {
			return nil, fmt.Errorf("trace slot %d holds only %d requests", s, len(reqs))
		}
	}
	r.baselineMB = procStatusMB("VmRSS")

	r.srv, err = server.New(o.workload.serverConfig(world, r.reg, walDir))
	if err != nil {
		return nil, err
	}
	if err := r.srv.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < connections; i++ {
		c, err := dial(r.srv.InstanceAddr(i % o.workload.instances))
		if err != nil {
			r.tearDown()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	for k := 0; k < o.scale.warmSlots; k++ {
		if _, err := r.serveSlot(r.bySlot[k%len(r.bySlot)], nil, nil); err != nil {
			r.tearDown()
			return nil, fmt.Errorf("warm-up slot %d: %w", k, err)
		}
	}
	return r, nil
}

func (r *rig) tearDown() {
	for _, c := range r.conns {
		c.close()
	}
	r.srv.Close()
}

// samples are the serving phase's raw measurements. Latencies are kept
// as float32 microseconds in slices sized before the phase starts.
type samples struct {
	ingestUS   []float32
	redirectUS []float32
	// blockKrps is one connection's ingest rate over one block, in
	// thousands per second; traced tells which blocks ran with request
	// spans on.
	blockKrps []float64
	traced    []bool
	freshMS   []float64
	// rssMB is the resident set (VmRSS) read at every slot boundary,
	// right after the new plan went live.
	rssMB []float64
	// shadowMS and fanoutMS exist in traced runs only: per slot, the
	// time of the shadow round plus encode, and fresh minus that.
	shadowMS  []float64
	fanoutMS  []float64
	slots     int
	attempted int64
	failed    int64
}

func newSamples(seconds float64, blockIngests int) *samples {
	// Room for 100k requests/s, well above what two loopback clients
	// reach, so the serving phase never grows a slice.
	n := int(seconds*100e3) + 2*blockIngests
	return &samples{
		ingestUS:   make([]float32, 0, n),
		redirectUS: make([]float32, 0, n/redirectEvery),
		blockKrps:  make([]float64, 0, n/blockIngests),
		traced:     make([]bool, 0, n/blockIngests),
	}
}

// connResult is what one connection measured in one slot. Only a slot
// that is measured keeps the latencies, only a traced one the leaves.
type connResult struct {
	ingestUS   []float32
	redirectUS []float32
	blockKrps  []float64
	leaves     []leaf
	attempted  int64
	failed     int64
	err        error
}

// driveConn sends connection i's share of one slot: every
// connections-th request as POST /ingest, and after every 10th a GET
// /redirect for that request's video at the hotspot the ingest reply
// named. Each round trip is timed from before the first byte is
// written to after the last byte is read.
func (r *rig) driveConn(i int, reqs []trace.Request, epochTag []byte, skip int, traceLeaves bool) {
	c, res, blockIngests := r.conns[i], &r.results[i], r.o.scale.blockIngests
	blockStart := time.Now()
	inBlock, sent := 0, 0
	for j := i; j < len(reqs); j += connections {
		if j == skip {
			continue
		}
		q := &reqs[j]
		t0 := time.Now()
		status, body, err := c.ingest(int(q.User), int(q.Video), q.Location.X, q.Location.Y)
		t1 := time.Now()
		if err != nil {
			res.err = fmt.Errorf("connection %d: ingest: %w", i, err)
			return
		}
		res.attempted++
		if status != 202 {
			res.failed++
		}
		res.ingestUS = append(res.ingestUS, float32(t1.Sub(t0).Nanoseconds())/1e3)
		if traceLeaves {
			res.leaves = append(res.leaves, leaf{"client.ingest", int64(t0.Sub(processStart)), int64(t1.Sub(processStart))})
		}
		sent++
		if sent%redirectEvery == 0 {
			hotspot, ok := hotspotOf(body)
			t2 := time.Now()
			status, body, err = c.redirect(int(q.Video), hotspot)
			t3 := time.Now()
			if err != nil {
				res.err = fmt.Errorf("connection %d: redirect: %w", i, err)
				return
			}
			res.attempted++
			// A redirect must be answered from the plan of the epoch
			// the last AdvanceSlot published.
			if !ok || status != 200 || !bytes.Contains(body, epochTag) {
				res.failed++
			}
			res.redirectUS = append(res.redirectUS, float32(t3.Sub(t2).Nanoseconds())/1e3)
			if traceLeaves {
				res.leaves = append(res.leaves, leaf{"client.redirect", int64(t2.Sub(processStart)), int64(t3.Sub(processStart))})
			}
			t1 = t3
		}
		inBlock++
		if inBlock == blockIngests {
			res.blockKrps = append(res.blockKrps, float64(blockIngests)/t1.Sub(blockStart).Seconds()/1e3)
			blockStart, inBlock = t1, 0
		}
	}
}

// hotspotOf reads H out of an ingest reply {"hotspot":H}.
func hotspotOf(body []byte) (int, bool) {
	const prefix = `{"hotspot":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, '}')
	if end < 0 {
		return 0, false
	}
	return atoi(rest[:end])
}

// serveSlot serves one slot: the connections send the slot's requests,
// then the slot is closed with AdvanceSlot and every frontend is polled
// until it serves the new epoch. It returns the digest of the plan
// that went live. sm, when non-nil, receives the measurements; tr, when
// non-nil, the spans.
func (r *rig) serveSlot(reqs []trace.Request, sm *samples, tr *tracer) (string, error) {
	slot := r.slot
	slotSpan := tr.begin("bench.slot", 0, slot)
	var epochTag []byte
	if r.epoch > 0 {
		epochTag = strconv.AppendInt([]byte(`"epoch":`), r.epoch, 10)
		epochTag = append(epochTag, ',')
	}
	skip := -1
	if r.o.inject == "drop-request" && sm != nil && sm.slots == 0 {
		skip = len(reqs) / 2
	}

	var connSpans [connections]int32
	var wg sync.WaitGroup
	for i := range r.results {
		res := &r.results[i]
		*res = connResult{ingestUS: res.ingestUS[:0], redirectUS: res.redirectUS[:0], blockKrps: res.blockKrps[:0], leaves: res.leaves[:0]}
		connSpans[i] = tr.begin("client.conn", slotSpan, slot)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.driveConn(i, reqs, epochTag, skip, tr != nil)
			tr.end(connSpans[i])
		}(i)
	}
	wg.Wait()
	// A withheld request still counts as sent: the harness believes it
	// was, and the checks must notice that the server never saw it.
	sent := int64(len(reqs))
	for i := range r.results {
		res := &r.results[i]
		if res.err != nil {
			return "", res.err
		}
		tr.addLeaves(connSpans[i], slot, res.leaves)
		if sm != nil {
			sm.ingestUS = append(sm.ingestUS, res.ingestUS...)
			sm.redirectUS = append(sm.redirectUS, res.redirectUS...)
			for _, k := range res.blockKrps {
				sm.blockKrps = append(sm.blockKrps, k)
				sm.traced = append(sm.traced, tr != nil)
			}
			sm.attempted += res.attempted
			sm.failed += res.failed
		} else if res.failed > 0 {
			return "", fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
		}
	}

	// Freshness: from the call that closes the slot until every
	// frontend serves the epoch computed from it.
	freshSpan := tr.begin("server.fresh", slotSpan, slot)
	t0 := time.Now()
	gotSlot, rec, err := r.srv.AdvanceSlot(context.Background())
	if err != nil {
		return "", fmt.Errorf("slot %d: AdvanceSlot: %w", slot, err)
	}
	for i := 0; i < r.o.workload.instances; i++ {
		for {
			epoch, digest := r.srv.InstanceEpochDigest(i)
			if epoch == rec.Epoch {
				if digest != rec.Digest {
					return "", fmt.Errorf("slot %d: frontend %d serves digest %s, scheduler published %s", slot, i, digest, rec.Digest)
				}
				break
			}
			if time.Since(t0) > 60*time.Second {
				return "", fmt.Errorf("slot %d: frontend %d still at epoch %d, want %d", slot, i, epoch, rec.Epoch)
			}
			runtime.Gosched()
		}
	}
	fresh := time.Since(t0)
	tr.end(freshSpan)
	tr.end(slotSpan)
	switch {
	case gotSlot != slot || rec.Slot != slot:
		return "", fmt.Errorf("server closed slot %d (plan of slot %d), harness is at slot %d", gotSlot, rec.Slot, slot)
	case rec.Epoch != r.epoch+1:
		return "", fmt.Errorf("slot %d: epoch %d follows %d", slot, rec.Epoch, r.epoch)
	case rec.Requests != sent:
		return "", fmt.Errorf("slot %d: plan computed from %d requests, %d were sent", slot, rec.Requests, sent)
	}
	r.slot++
	r.epoch = rec.Epoch
	r.sent += sent
	if sm != nil {
		sm.freshMS = append(sm.freshMS, fresh.Seconds()*1e3)
		sm.rssMB = append(sm.rssMB, procStatusMB("VmRSS"))
		sm.slots++
	}
	return rec.Digest, nil
}

// shadowSlot accounts for the slot's fresh_ms from outside the program:
// right after the slot's plan went live it aggregates the same requests
// and repeats the server's two big steps — the scheduling round and
// the canonical encode — on a scheduler of the harness's own. Taken
// seconds apart on the same input, the pair shares the machine's
// weather; fresh minus both is what the server adds around them. The
// shadow plan must carry the digest the server published.
func (r *rig) shadowSlot(reqs []trace.Request, digest string, sm *samples, tr *tracer) error {
	if r.shadow == nil {
		var err error
		if r.shadow, err = core.New(r.world, core.DefaultParams()); err != nil {
			return err
		}
		if r.index, err = r.world.Index(); err != nil {
			return err
		}
	}
	ctx, err := sim.BuildSlotContext(r.world, r.index, r.slot-1, reqs, nil)
	if err != nil {
		return err
	}
	id := tr.begin("core.round", 0, r.slot-1)
	plan, err := r.shadow.ScheduleRound(ctx.Demand, core.Constraints{Service: ctx.EffectiveCapacity(), Cache: ctx.EffectiveCacheCapacity()})
	round := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("core.encode", 0, r.slot-1)
	got := fmt.Sprintf("%016x", core.DigestOf(plan.Canonical()))
	encode := tr.end(id)
	if got != digest {
		return fmt.Errorf("slot %d: shadow round digest %s, server published %s", r.slot-1, got, digest)
	}
	fresh := sm.freshMS[len(sm.freshMS)-1]
	sm.shadowMS = append(sm.shadowMS, (round+encode).Seconds()*1e3)
	sm.fanoutMS = append(sm.fanoutMS, fresh-(round+encode).Seconds()*1e3)
	return nil
}

// reference is the offline simulator's view of the same trace.
type reference struct {
	// plans[s] is the hex canonical plan of trace slot s.
	plans []string
	// slotMS[s] is the wall time sim.Run spent on trace slot s.
	slotMS []float64
	runS   float64
}

// offlineReference runs sim.Run with the RBCAer policy over the
// generated trace, keeping every slot's canonical plan bytes and the
// time between consecutive slots' completions.
func offlineReference(world *trace.World, tr *trace.Trace, t *tracer) (*reference, error) {
	ref := &reference{plans: make([]string, tr.Slots)}
	id := t.begin("sim.run", 0, -1)
	last := time.Now()
	start := last
	_, err := sim.Run(world, tr, scheme.NewRBCAer(core.DefaultParams()), sim.Options{
		PlanSink: func(slot int, plan *core.Plan) {
			ref.plans[slot] = hex.EncodeToString(plan.Canonical())
		},
		SlotSink: func(sim.SlotMetrics) error {
			now := time.Now()
			ref.slotMS = append(ref.slotMS, now.Sub(last).Seconds()*1e3)
			last = now
			return nil
		},
	})
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("offline reference: %w", err)
	}
	ref.runS = time.Since(start).Seconds()
	return ref, nil
}

// traceSlotOf maps a server slot to the trace slot it replayed: the
// warm-up slots and the measured slots each cycle through the trace
// from its first slot.
func traceSlotOf(serverSlot, warmSlots, traceSlots int) int {
	if serverSlot < warmSlots {
		return serverSlot % traceSlots
	}
	return (serverSlot - warmSlots) % traceSlots
}

// checkServing holds the serving phase to the repository's contracts:
// every plan the live server published is byte-identical to the
// offline simulator's plan for the same requests, every request sent
// was accepted, and every frontend verified and installed every epoch.
func checkServing(r *rig, ref *reference) error {
	plans := r.srv.Plans()
	if len(plans) != r.slot {
		return fmt.Errorf("server retains %d plans after %d slots", len(plans), r.slot)
	}
	for _, p := range plans {
		want := ref.plans[traceSlotOf(p.Slot, r.o.scale.warmSlots, len(ref.plans))]
		if want == "" {
			return fmt.Errorf("slot %d: no offline plan to compare with", p.Slot)
		}
		if p.Canonical != want {
			return fmt.Errorf("slot %d: online plan (%d hex bytes, digest %s) differs from the offline simulator's (%d hex bytes)",
				p.Slot, len(p.Canonical), p.Digest, len(want))
		}
	}
	count := func(name string) int64 { return r.reg.Counter(name).Value() }
	if got := count("server.ingest.accepted"); got != r.sent {
		return fmt.Errorf("server accepted %d requests, %d were sent", got, r.sent)
	}
	for i := 0; i < r.o.workload.instances; i++ {
		pfx := "server.shard." + strconv.Itoa(i) + "."
		if got := count(pfx + "swaps"); got != r.epoch {
			return fmt.Errorf("frontend %d installed %d plans, %d epochs were published", i, got, r.epoch)
		}
		if got := count(pfx + "plan_rejects"); got != 0 {
			return fmt.Errorf("frontend %d rejected %d plans", i, got)
		}
	}
	for _, name := range []string{"server.ingest.rejected", "server.slots.coalesced", "server.plan.errors", "server.wal.errors"} {
		if got := count(name); got != 0 {
			return fmt.Errorf("%s = %d, want 0", name, got)
		}
	}
	return nil
}

// result is everything one run measured.
type result struct {
	setupS      []float64
	sm          *samples
	peakMB      float64 // VmHWM at the end of the serving phase
	restartMS   []float64
	ref         *reference
	fingerprint string
	layers      []metric
}

// run executes one workload once, in the order: set-up, measured
// serving phase, peak memory, the remaining set-ups, recovery drill,
// offline reference, checks. It returns an error — and the caller
// prints no metric — if any output is wrong.
func run(o options) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walDir := func(name string) string {
		if !o.workload.durable {
			return ""
		}
		return filepath.Join(dir, name)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload.name)
	}
	res := &result{}

	setupSpan := tr.begin("bench.setup", 0, -1)
	r, err := setUp(o, walDir("wal-0"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr.end(setupSpan)
	res.setupS = append(res.setupS, time.Since(o.start).Seconds())

	// Measured serving phase: whole slots until the time is up and
	// every trace slot has been served at least once. The traced run
	// records request spans on every other slot, so that the same run
	// compares ingest rate with and without them.
	runtime.GC()
	seconds, minSlots := o.seconds, len(r.bySlot)
	if o.trace {
		seconds, minSlots = seconds/4, min(minSlots, 4)
	}
	sm := newSamples(max(seconds, 1), o.scale.blockIngests)
	phaseStart := time.Now()
	for sm.slots < minSlots || time.Since(phaseStart).Seconds() < seconds {
		reqs := r.bySlot[sm.slots%len(r.bySlot)]
		slotTracer := tr
		if sm.slots%2 == 1 {
			slotTracer = nil
		}
		digest, err := r.serveSlot(reqs, sm, slotTracer)
		if err == nil && o.trace {
			err = r.shadowSlot(reqs, digest, sm, tr)
		}
		if err != nil {
			r.tearDown()
			return nil, err
		}
	}
	res.sm = sm
	runtime.GC()
	res.peakMB = procStatusMB("VmHWM")
	r.tearDown()

	if o.trace {
		// The traced run: per-layer metrics, one pass of the reference.
		if res.layers, err = measureLayers(o, r, sm, res.peakMB, tr, dir); err != nil {
			return nil, err
		}
		if res.ref, err = offlineReference(r.world, r.tr, tr); err != nil {
			return nil, err
		}
		res.layers = append(res.layers, metric{"sim.run_s", "s", res.ref.runS, 1})
	} else {
		// The remaining set-ups, torn down at once: setup_s is the median.
		for k := 1; k < o.scale.setups; k++ {
			runtime.GC()
			t0 := time.Now()
			r2, err := setUp(o, walDir(fmt.Sprintf("wal-%d", k)))
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
			r2.tearDown()
		}
		runtime.GC()
		if err := res.drillAndReference(o, r, filepath.Join(dir, "drill")); err != nil {
			return nil, err
		}
	}
	if o.inject == "corrupt-reference" {
		p := []byte(res.ref.plans[0])
		p[len(p)/2] ^= 1
		res.ref.plans[0] = string(p)
	}
	if err := checkServing(r, res.ref); err != nil {
		return nil, err
	}
	if sm.failed > 0 {
		return nil, fmt.Errorf("%d of %d operations failed; the workloads are chosen so that none does", sm.failed, sm.attempted)
	}
	res.fingerprint = fingerprint(res.ref.plans)

	if o.trace {
		if err := tr.writeJSONL(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// drillAndReference times the recovery drill and the offline reference,
// interleaved: a group of restart cycles, then passes of sim.Run over
// the trace, each followed by another group, until the passes have
// taken scale.referenceS. Both are short; taking their samples at
// several moments keeps one slow second of the machine from setting
// either median.
func (res *result) drillAndReference(o options, r *rig, dir string) error {
	drill, err := prepareDrill(o, r, dir)
	if err != nil {
		return fmt.Errorf("recovery drill: %w", err)
	}
	cycles := func() error {
		ms, err := drill.restartCycles(o.scale.drillCycles, r.bySlot[0][0])
		res.restartMS = append(res.restartMS, ms...)
		if err != nil {
			return fmt.Errorf("recovery drill, cycle %d: %w", len(res.restartMS), err)
		}
		return nil
	}
	if err := cycles(); err != nil {
		return err
	}
	for spent := 0.0; res.ref == nil || spent < o.scale.referenceS; {
		runtime.GC()
		ref, err := offlineReference(r.world, r.tr, nil)
		if err != nil {
			return err
		}
		spent += ref.runS
		if res.ref == nil {
			res.ref = ref
		} else if !slices.Equal(ref.plans, res.ref.plans) {
			return fmt.Errorf("two passes of sim.Run over one trace produced different plans")
		} else {
			res.ref.slotMS = append(res.ref.slotMS, ref.slotMS...)
		}
		if err := cycles(); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint is one short value over every trace slot's plan bytes:
// equal across runs of one seed, and equal between edge_mem and
// edge_wal.
func fingerprint(plans []string) string {
	var all []byte
	for _, p := range plans {
		all = append(all, p...)
		all = append(all, '\n')
	}
	return fmt.Sprintf("%016x", core.DigestOf(all))
}

// sortedCopy32 returns xs sorted ascending, leaving xs alone.
func sortedCopy32(xs []float32) []float32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
