package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/ring"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/wal"
)

// metric is one named number of the result.
type metric struct {
	name  string
	unit  string
	value float64
	// n is how many samples the value summarises (0 for an exact
	// count or a value derived from other metrics).
	n int
}

// layerRun times calls into the layers' public functions from outside.
// Every repetition is a span under the run's "bench.layers" span.
type layerRun struct {
	o      options
	tr     *tracer
	parent int32
	out    []metric
}

func (l *layerRun) add(name, unit string, value float64, n int) {
	l.out = append(l.out, metric{name, unit, value, n})
}

// times runs fn between scale.minReps and scale.reps times — stopping
// once the metric's time budget is spent — and returns the median
// duration of one call and the number of calls.
func (l *layerRun) times(name string, fn func()) (time.Duration, int) {
	durs := make([]float64, 0, l.o.scale.reps)
	var spent time.Duration
	for len(durs) < l.o.scale.reps && (len(durs) < l.o.scale.minReps || spent < l.o.scale.repBudget) {
		id := l.tr.begin(name, l.parent, -1)
		fn()
		d := l.tr.end(id)
		durs = append(durs, float64(d))
		spent += d
	}
	return time.Duration(median(durs)), len(durs)
}

// ms records the median time of fn in milliseconds.
func (l *layerRun) ms(name string, fn func()) float64 {
	d, n := l.times(name, fn)
	v := d.Seconds() * 1e3
	l.add(name+"_ms", "ms", v, n)
	return v
}

// perOp records the median time of fn divided by the ops one call of
// fn performs, in nanoseconds.
func (l *layerRun) perOp(name string, ops int, fn func()) float64 {
	d, n := l.times(name, fn)
	v := float64(d) / float64(ops)
	l.add(name+"_ns", "ns", v, n)
	return v
}

// allocsPerOp counts heap allocations and bytes per op of fn, which
// performs ops ops. Nothing else runs while it is measured.
func allocsPerOp(ops int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

// handlerBatch is the number of distinct requests the socketless
// handler timings cycle through.
const handlerBatch = 1024

// measureLayers produces the per-layer metrics of a traced run, each
// on the workload's own inputs: the median-size trace slot's requests,
// the demand sim.BuildSlotContext aggregates from them, and the plan
// scheduled from that demand.
func measureLayers(o options, r *rig, sm *samples, peakMB float64, tr *tracer, dir string) ([]metric, error) {
	l := &layerRun{o: o, tr: tr}
	l.parent = tr.begin("bench.layers", 0, -1)
	defer tr.end(l.parent)

	order := make([]int, len(r.bySlot))
	for s := range order {
		order[s] = s
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(r.bySlot[a]) - len(r.bySlot[b]) })
	slot := order[len(order)/2]
	reqs := r.bySlot[slot]
	index, err := r.world.Index()
	if err != nil {
		return nil, err
	}
	var ctx *sim.SlotContext
	l.ms("sim.context", func() {
		ctx, err = sim.BuildSlotContext(r.world, index, slot, reqs, stats.SplitRand(o.seed, "bench"))
	})
	if err != nil {
		return nil, err
	}
	cons := func() core.Constraints {
		return core.Constraints{Service: ctx.EffectiveCapacity(), Cache: ctx.EffectiveCacheCapacity()}
	}

	if err := l.serverLayers(r, sm, ctx, filepath.Join(dir, "layers-wal")); err != nil {
		return nil, err
	}

	// geo and ring: the two lookups on the ingest path.
	l.perOp("geo.nearest", len(reqs), func() {
		for i := range reqs {
			index.Nearest(reqs[i].Location)
		}
	})
	rg, err := ring.New(max(o.workload.instances, 2), 0)
	if err != nil {
		return nil, err
	}
	hotspots := len(r.world.Hotspots)
	l.perOp("ring.owner", hotspots*32, func() {
		for k := 0; k < 32; k++ {
			for h := 0; h < hotspots; h++ {
				rg.OwnerOfHotspot(h)
			}
		}
	})

	if err := l.walLayers(o, r, ctx, dir); err != nil {
		return nil, err
	}
	l.add("wal.fsyncs", "count", float64(r.reg.Counter("wal.fsyncs").Value()), 0)
	l.add("wal.checkpoints", "count", float64(r.reg.Counter("wal.checkpoints").Value()), 0)

	// core: one scheduling round on a shadow scheduler with the
	// server's parameters, then its parts.
	sched, err := core.New(r.world, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	var plan *core.Plan
	l.ms("core.round", func() { plan, err = sched.ScheduleRound(ctx.Demand, cons()) })
	if err != nil {
		return nil, err
	}
	allocs, allocBytes := allocsPerOp(1, func() { plan, err = sched.ScheduleRound(ctx.Demand, cons()) })
	if err != nil {
		return nil, err
	}
	l.add("core.round_allocs", "count", allocs, 1)
	l.add("core.round_alloc_mb", "MB", allocBytes/(1<<20), 1)

	obsParams := core.DefaultParams()
	obsParams.Obs = obs.NewRegistry()
	obsSched, err := core.New(r.world, obsParams)
	if err != nil {
		return nil, err
	}
	var clusterMS, balanceMS, replicateMS []float64
	_, n := l.times("core.round_obs", func() {
		p, perr := obsSched.ScheduleRound(ctx.Demand, cons())
		if perr != nil {
			err = perr
			return
		}
		clusterMS = append(clusterMS, p.Stats.Phases.Cluster.Seconds()*1e3)
		balanceMS = append(balanceMS, p.Stats.Phases.Balance.Seconds()*1e3)
		replicateMS = append(replicateMS, p.Stats.Phases.Replicate.Seconds()*1e3)
	})
	if err != nil {
		return nil, err
	}
	l.add("core.cluster_ms", "ms", median(clusterMS), n)
	l.add("core.balance_ms", "ms", median(balanceMS), n)
	l.add("core.replicate_ms", "ms", median(replicateMS), n)

	var canonical []byte
	var digest uint64
	l.ms("core.encode", func() {
		canonical = plan.Canonical()
		digest = core.DigestOf(canonical)
	})
	var verr error
	l.ms("core.verify", func() {
		// The install triple of server/instance.go and wal/recover.go.
		if core.DigestOf(canonical) != digest {
			verr = fmt.Errorf("plan digest changed")
			return
		}
		parsed, perr := core.ParseCanonical(canonical)
		if perr != nil {
			verr = perr
			return
		}
		if !bytes.Equal(parsed.Canonical(), canonical) {
			verr = fmt.Errorf("plan bytes did not round-trip")
		}
	})
	if verr != nil {
		return nil, verr
	}
	st := plan.Stats
	l.add("core.plan_bytes", "B", float64(len(canonical)), 0)
	l.add("core.max_flow", "count", float64(st.MaxFlow), 0)
	l.add("core.moved_flow", "count", float64(st.MovedFlow), 0)
	l.add("core.moved_ratio", "ratio", float64(st.MovedFlow)/float64(max(st.MaxFlow, 1)), 0)
	l.add("core.iterations", "count", float64(st.Iterations), 0)
	l.add("core.distance_calcs", "count", float64(st.DistanceCalcs), 0)
	l.add("core.direct_edges", "count", float64(st.DirectEdges), 0)
	l.add("core.guide_nodes", "count", float64(st.GuideNodes), 0)
	l.add("core.clusters", "count", float64(st.Clusters), 0)
	l.add("core.replicas", "count", float64(st.Replicas), 0)

	// What the server adds around the round and the encode — drain,
	// merge, per-frontend verify and install, the WAL plan record, the
	// hand-off between goroutines — from the per-slot pairs shadowSlot
	// took.
	freshMS, shadowMS, fanoutMS := median(sm.freshMS), median(sm.shadowMS), median(sm.fanoutMS)
	l.add("server.fanout_ms", "ms", fanoutMS, len(sm.fanoutMS))
	fmt.Fprintf(stderr, "%s: fresh_ms %.2f; per slot, shadow core.round + core.encode %.2f (%.0f%%) + server.fanout %.2f (%.0f%%)\n",
		o.workload.name, freshMS, shadowMS, 100*shadowMS/freshMS, fanoutMS, 100*fanoutMS/freshMS)

	// The mechanisms the server does not use today, on the same demand.
	serial := core.DefaultParams()
	serial.Workers = 1
	serialSched, err := core.New(r.world, serial)
	if err != nil {
		return nil, err
	}
	l.ms("core.round_w1", func() { _, err = serialSched.ScheduleRound(ctx.Demand, cons()) })
	if err != nil {
		return nil, err
	}
	if err := l.deltaRounds(o, r, index); err != nil {
		return nil, err
	}
	shardSched, err := shard.New(r.world, shard.Params{CellKm: 4, Workers: 2})
	if err != nil {
		return nil, err
	}
	l.ms("shard.round", func() { _, err = shardSched.ScheduleRound(ctx.Demand, cons()) })
	if err != nil {
		return nil, err
	}

	// The scheduler's kernels on the slot's content signatures.
	var sets []similarity.Set
	for h := 0; h < ctx.Demand.NumHotspots(); h++ {
		counts := ctx.Demand.VideoCounts(h)
		if len(counts) == 0 {
			continue
		}
		set, err := similarity.TopFraction(counts, core.DefaultParams().TopFraction)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	var dist [][]float64
	l.ms("similarity.matrix", func() { dist = similarity.DistanceMatrix(sets, 0) })
	l.ms("cluster.agglomerative", func() {
		var d *cluster.Dendrogram
		if d, err = cluster.AgglomerativeMatrix(dist, core.DefaultParams().Linkage); err == nil {
			d.Cut(core.DefaultParams().ClusterCut)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := l.mcmfSolve(hotspots + 2); err != nil {
		return nil, err
	}

	l.add("trace.generate_s", "s", r.generateS, 1)
	if err := l.echoFloor(o, r); err != nil {
		return nil, err
	}
	l.add("bench.baseline_rss_mb", "MB", r.baselineMB, 1)
	l.add("bench.peak_rss_mb", "MB", peakMB, 1)
	l.traceOverhead(sm)
	return l.out, nil
}

// serverLayers times the ingest and redirect handlers without a
// socket, on a fresh copy of the workload's serving tier that holds a
// plan for the slot, and derives the socket's share of the measured
// round trips.
func (l *layerRun) serverLayers(r *rig, sm *samples, ctx *sim.SlotContext, walDir string) error {
	o := l.o
	if !o.workload.durable {
		walDir = ""
	}
	reg := obs.NewRegistry()
	srv, err := server.New(o.workload.serverConfig(r.world, reg, walDir))
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	feeders := make([]*feeder, o.workload.instances)
	for i := range feeders {
		feeders[i] = newFeeder(srv.InstanceHandler(i))
	}
	for j := range ctx.Requests {
		if status := feeders[j%len(feeders)].ingest(&ctx.Requests[j]); status != http.StatusAccepted {
			return fmt.Errorf("socketless ingest: status %d", status)
		}
	}
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
		return err
	}

	batch := min(handlerBatch, len(ctx.Requests))
	bodies := make([][]byte, batch)
	lookups := make([]*http.Request, batch)
	for k := range bodies {
		q := &ctx.Requests[k]
		bodies[k] = appendIngestBody(nil, int(q.User), int(q.Video), q.Location.X, q.Location.Y)
		lookups[k] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/redirect?video=%d&hotspot=%d", q.Video, ctx.Nearest[k]), nil)
	}
	var bad int
	ingestAll := func() {
		for k, body := range bodies {
			if feeders[k%len(feeders)].post(body) != http.StatusAccepted {
				bad++
			}
		}
	}
	handlerNS := l.perOp("server.ingest_handler", batch, ingestAll)
	allocs, allocBytes := allocsPerOp(batch, ingestAll)
	l.add("server.ingest_allocs", "count", allocs, batch)
	l.add("server.ingest_alloc_b", "B", allocBytes, batch)

	w := &nopWriter{h: make(http.Header, 4)}
	handlers := make([]http.Handler, o.workload.instances)
	for i := range handlers {
		handlers[i] = srv.InstanceHandler(i)
	}
	lookupAll := func() {
		for k, req := range lookups {
			w.status = 0
			clear(w.h)
			handlers[k%len(handlers)].ServeHTTP(w, req)
			if w.status != http.StatusOK {
				bad++
			}
		}
	}
	l.perOp("server.redirect_handler", batch, lookupAll)
	allocs, _ = allocsPerOp(batch, lookupAll)
	l.add("server.redirect_allocs", "count", allocs, batch)
	if bad > 0 {
		return fmt.Errorf("%d socketless handler calls failed", bad)
	}

	ingest, redirect := sortedCopy32(sm.ingestUS), sortedCopy32(sm.redirectUS)
	l.add("server.socket_overhead_us", "us", quantile32(ingest, 0.5)-handlerNS/1e3, len(ingest))
	l.add("server.ingest_p99_us", "us", quantile32(ingest, 0.99), len(ingest))
	l.add("server.ingest_p999_us", "us", quantile32(ingest, 0.999), len(ingest))
	l.add("server.redirect_p99_us", "us", quantile32(redirect, 0.99), len(redirect))
	// Registry counters of the serving phase; all three should be 0.
	l.add("server.rejected_429", "count", float64(r.reg.Counter("server.ingest.rejected").Value()), 0)
	l.add("server.coalesced_slots", "count", float64(r.reg.Counter("server.slots.coalesced").Value()), 0)
	l.add("server.plan_rejects", "count", float64(r.reg.Counter("server.plan.rejects").Value()), 0)
	return nil
}

// walLayers times the log's append path and recovery.
func (l *layerRun) walLayers(o options, r *rig, ctx *sim.SlotContext, dir string) error {
	reg := obs.NewRegistry()
	log, _, err := wal.Open(filepath.Join(dir, "layers-append"), wal.Options{Policy: wal.PolicyNone, Registry: reg})
	if err != nil {
		return err
	}
	var seq uint64
	reqs := ctx.Requests
	l.perOp("wal.append", len(reqs), func() {
		for i := range reqs {
			seq++
			if _, aerr := log.AppendIngest(ctx.Slot, 0, seq, ctx.Nearest[i], int(reqs[i].Video), 1); aerr != nil {
				err = aerr
			}
		}
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.add("wal.bytes_per_ingest", "B", float64(reg.Counter("wal.bytes").Value())/float64(reg.Counter("wal.appends").Value()), 0)

	// One append made durable at a time: this is the sandbox's disk,
	// reported so that it can be told from the code's cost, never a
	// claim about either.
	const syncBatch = 16
	log, _, err = wal.Open(filepath.Join(dir, "layers-sync"), wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	d, n := l.times("wal.append_sync", func() {
		for i := 0; i < syncBatch; i++ {
			seq++
			lsn, aerr := log.AppendIngest(ctx.Slot, 0, seq, ctx.Nearest[i], int(reqs[i].Video), 1)
			if aerr == nil {
				aerr = log.Sync(lsn)
			}
			if aerr != nil {
				err = aerr
			}
		}
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.add("wal.append_sync_us", "us", float64(d.Microseconds())/syncBatch, n)

	// Recovery of the drill's directory: checkpoint plus suffix.
	drillDir := filepath.Join(dir, "layers-drill")
	if _, err := prepareDrill(o, r, drillDir); err != nil {
		return err
	}
	var records int
	l.ms("wal.recover", func() {
		lg, st, oerr := wal.Open(drillDir, wal.Options{Policy: wal.PolicyNone})
		if oerr != nil {
			err = oerr
			return
		}
		records = st.Records
		lg.Crash()
	})
	if err != nil {
		return err
	}
	l.add("wal.recover_records", "count", float64(records), 0)
	return nil
}

// deltaRounds runs a delta-mode shadow scheduler over the trace's
// consecutive slots: how long its rounds take on generated demand and
// how often they fall back to a full solve.
func (l *layerRun) deltaRounds(o options, r *rig, grid *geo.Grid) error {
	params := core.DefaultParams()
	params.DeltaThreshold = core.DefaultDeltaThreshold
	sched, err := core.New(r.world, params)
	if err != nil {
		return err
	}
	var durs []float64
	var fallbacks int
	var spent time.Duration
	for s := range r.bySlot {
		if len(durs) >= l.o.scale.minReps && spent > l.o.scale.repBudget {
			break
		}
		ctx, err := sim.BuildSlotContext(r.world, grid, s, r.bySlot[s], stats.SplitRand(o.seed, "bench"))
		if err != nil {
			return err
		}
		id := l.tr.begin("core.delta_round", l.parent, -1)
		plan, err := sched.ScheduleRound(ctx.Demand, core.Constraints{Service: ctx.EffectiveCapacity(), Cache: ctx.EffectiveCacheCapacity()})
		d := l.tr.end(id)
		if err != nil {
			return err
		}
		if s == 0 {
			continue // the cold solve that seeds the retained state
		}
		durs = append(durs, d.Seconds()*1e3)
		spent += d
		if plan.Stats.DeltaFallback {
			fallbacks++
		}
	}
	if len(durs) == 0 {
		return fmt.Errorf("delta rounds need at least two trace slots")
	}
	l.add("core.delta_round_ms", "ms", median(durs), len(durs))
	l.add("core.delta_fallback_ratio", "ratio", float64(fallbacks)/float64(len(durs)), len(durs))
	return nil
}

// mcmfSolve times the min-cost max-flow solver alone on a frozen
// seeded graph with the workload's node count: rebuild in place, then
// solve.
func (l *layerRun) mcmfSolve(n int) error {
	type edge struct {
		from, to int
		capacity int64
		cost     float64
	}
	rng := rand.New(rand.NewSource(1))
	edges := make([]edge, 0, n*6)
	for k := 0; k < n*6; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			edges = append(edges, edge{from, to, int64(1 + rng.Intn(20)), rng.Float64() * 10})
		}
	}
	g := mcmf.NewGraph(0)
	var err error
	l.ms("mcmf.solve", func() {
		g.Reinit(n)
		for _, e := range edges {
			if _, aerr := g.AddEdge(e.from, e.to, e.capacity, e.cost); aerr != nil {
				err = aerr
			}
		}
		if _, serr := g.MinCostMaxFlow(0, n-1); serr != nil {
			err = serr
		}
	})
	return err
}

// echoFloor drives the same client against a net/http server whose
// handler only answers 202: the median round trip is the floor the
// socket, the HTTP server and the client put under ingest_p50_us.
func (l *layerRun) echoFloor(o options, r *rig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	reply := []byte("{}\n")
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write(reply)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.close()
	id := l.tr.begin("bench.echo", l.parent, -1)
	defer l.tr.end(id)
	reqs := r.bySlot[0]
	us := make([]float32, 0, o.scale.echoRequests)
	for k := 0; k < o.scale.echoRequests; k++ {
		q := &reqs[k%len(reqs)]
		t0 := time.Now()
		status, _, err := c.ingest(int(q.User), int(q.Video), q.Location.X, q.Location.Y)
		if err != nil || status != http.StatusAccepted {
			return fmt.Errorf("echo round trip: status %d: %v", status, err)
		}
		us = append(us, float32(time.Since(t0).Nanoseconds())/1e3)
	}
	slices.Sort(us)
	l.add("bench.echo_p50_us", "us", quantile32(us, 0.5), len(us))
	return nil
}

// traceOverhead compares the ingest rate of the blocks served with
// request spans on against the blocks served with them off, in the
// same run.
func (l *layerRun) traceOverhead(sm *samples) {
	var on, off []float64
	for k, krps := range sm.blockKrps {
		if sm.traced[k] {
			on = append(on, krps)
		} else {
			off = append(off, krps)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		l.add("bench.trace_overhead_pct", "%", 0, 0)
		return
	}
	l.add("bench.trace_overhead_pct", "%", 100*(median(off)-median(on))/median(off), len(on))
}

// median returns the median of xs (NaN when empty), leaving xs alone.
func median(xs []float64) float64 { return stats.Median(xs) }

// quantile32 returns the q-quantile of an ascending slice (nearest
// rank; 0 when empty).
func quantile32(sorted []float32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1)+0.5)])
}
