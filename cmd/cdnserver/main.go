// Command cdnserver runs the online scheduling service: it ingests
// live user requests over HTTP/JSON, recomputes an RBCAer plan every
// timeslot, and serves redirect lookups from the atomically swapped
// current plan.
//
// Usage:
//
//	cdnserver [flags]
//
//	-addr ADDR        listen address (default 127.0.0.1:8370)
//	-debug-addr ADDR  serve pprof/expvar/metrics on ADDR
//	-world FILE       world JSON file (from cdntrace); when absent a
//	                  small world is generated from -seed
//	-instances N      frontend instances: hotspot h's ingestion belongs
//	                  to frontend h mod N of N in-process frontends
//	                  (instance 0 on -addr, the rest on ephemeral
//	                  ports), and every slot's plan fans out to all of
//	                  them digest-verified
//	-slot DUR         timeslot length (default 10s; 0 = manual slots
//	                  via POST /admin/advance)
//	-queue N          per-frontend backpressure bound (429 beyond it)
//	-history N        per-slot plan records retained for GET /plans
//	-drain DUR        graceful-shutdown drain timeout
//	-seed N           world-generation seed (no -world only)
//	-wal-dir DIR      durable serving state: write-ahead-log every
//	                  accepted ingest and slot boundary into DIR and
//	                  recover from the newest checkpoint + WAL suffix
//	                  on boot (empty = volatile, the default)
//	-fsync POLICY     WAL fsync policy: always (group commit, the
//	                  default), interval, or none (-wal-dir only)
//	-checkpoint-every N
//	                  write a checkpoint every N slots, empty ones
//	                  included (-wal-dir only; 0 = default)
//	-smoke            boot on an ephemeral port, replay a generated
//	                  trace through the server over real HTTP, spread
//	                  across every frontend; verify every slot
//	                  scheduled, every scheduled slot served the digest
//	                  of the offline simulation's plan for that trace,
//	                  and every frontend serves the same (epoch,
//	                  digest); shut down cleanly, exit. With
//	                  -wal-dir the smoke instead kills the tier abruptly
//	                  mid-slot, restarts it from disk, and requires every
//	                  plan to match an uninterrupted offline simulation
//	                  byte for byte
//
// The HTTP API is POST /ingest, GET /redirect, GET /plans,
// GET /healthz, and POST /admin/advance (see internal/server).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	crowdcdn "repro"
	"repro/internal/server/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cdnserver: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdnserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8370", "listen address")
	debugAddr := fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address")
	worldPath := fs.String("world", "", "world JSON file (default: generate from -seed)")
	instances := fs.Int("instances", 0, "frontend instances; hotspot h's ingestion belongs to instance h mod N (0 = 1)")
	slot := fs.Duration("slot", 10*time.Second, "timeslot length (0 = manual slots)")
	queue := fs.Int("queue", 0, "per-frontend backpressure bound (0 = default)")
	history := fs.Int("history", 0, "plan records retained (0 = default)")
	drain := fs.Duration("drain", 0, "graceful-shutdown drain timeout (0 = default)")
	seed := fs.Int64("seed", 1, "world-generation seed")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory for durable serving state (empty = volatile)")
	fsync := fs.String("fsync", "", "WAL fsync policy: always, interval, or none (-wal-dir only)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint every N slots, empty ones included (-wal-dir only; 0 = default)")
	smoke := fs.Bool("smoke", false, "end-to-end smoke: boot, replay a generated trace, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		if *walDir != "" {
			return runCrashSmoke(*seed, *instances, *walDir, *fsync, *ckptEvery)
		}
		return runSmoke(*seed, *instances)
	}

	world, err := loadWorld(*worldPath, *seed)
	if err != nil {
		return err
	}
	srv, dbg, dbgAddr, err := serve(crowdcdn.ServerConfig{
		World:           world,
		Addr:            *addr,
		Instances:       *instances,
		QueueBound:      *queue,
		SlotDuration:    *slot,
		PlanHistory:     *history,
		DrainTimeout:    *drain,
		WALDir:          *walDir,
		Fsync:           *fsync,
		CheckpointEvery: *ckptEvery,
	}, *debugAddr)
	if err != nil {
		return err
	}
	if dbg != nil {
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "cdnserver: debug server on http://%s/debug/metrics\n", dbgAddr)
	}
	if st := srv.WALState(); st != nil {
		fmt.Fprintf(os.Stderr, "cdnserver: recovered slot %d from %s (%d WAL records, %d torn bytes truncated)\n",
			st.Slot, *walDir, st.Records, st.TruncatedBytes)
	}
	fmt.Fprintf(os.Stderr, "cdnserver: serving %d hotspots on http://%s (slot %v)\n",
		len(world.Hotspots), srv.Addr(), *slot)
	for i := 1; i < srv.NumInstances(); i++ {
		fmt.Fprintf(os.Stderr, "cdnserver: frontend %d on http://%s\n", i, srv.InstanceAddr(i))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "cdnserver: shutting down")
	return srv.Close()
}

// serve boots serve mode: one metrics registry and, with debugAddr set,
// one round tracer shared by the tier and the debug server on debugAddr
// (so /debug/events carries the tier's swap and swap-reject events),
// then the started tier. dbg is nil without debugAddr; closing it is
// the caller's.
func serve(cfg crowdcdn.ServerConfig, debugAddr string) (srv *crowdcdn.Server, dbg *http.Server, dbgAddr string, err error) {
	cfg.Registry = crowdcdn.NewMetricsRegistry()
	if debugAddr != "" {
		cfg.Tracer = crowdcdn.NewRoundTracer(0, false)
		if dbg, dbgAddr, err = crowdcdn.ServeDebug(debugAddr, cfg.Registry, cfg.Tracer); err != nil {
			return nil, nil, "", fmt.Errorf("starting debug server: %w", err)
		}
	}
	if srv, err = crowdcdn.NewServer(cfg); err == nil {
		err = srv.Start()
	}
	if err != nil {
		if dbg != nil {
			dbg.Close()
		}
		return nil, nil, "", err
	}
	return srv, dbg, dbgAddr, nil
}

// smokeConfig is a deliberately small deployment so the smoke run
// finishes in seconds.
func smokeConfig(seed int64) crowdcdn.TraceConfig {
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.NumHotspots = 16
	cfg.NumVideos = 400
	cfg.NumUsers = 400
	cfg.NumRequests = 1500
	cfg.Slots = 4
	cfg.NumRegions = 3
	return cfg
}

// runSmoke is the CI end-to-end check: boot the serving tier on
// ephemeral ports with manual slots, replay a generated trace through
// it over real HTTP (rotating across every frontend), require every
// request accepted, every slot that was sent requests to have
// scheduled a plan, every scheduled slot to serve the digest of the
// offline simulation's plan for the same trace and every frontend to
// serve the same (epoch, digest), and shut down cleanly. instances
// sizes the frontend fleet (-instances 3 smokes ingest sharding and the
// digest-verified plan fan-out).
func runSmoke(seed int64, instances int) error {
	world, tr, err := crowdcdn.Generate(smokeConfig(seed))
	if err != nil {
		return err
	}
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		return err
	}
	reg := crowdcdn.NewMetricsRegistry()
	srv, err := crowdcdn.NewServer(crowdcdn.ServerConfig{
		World:       world,
		Instances:   instances,
		Registry:    reg,
		PlanHistory: tr.Slots + 16,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close() // on an error path; a no-op after the Close below
	targets := make([]string, srv.NumInstances())
	for i := range targets {
		targets[i] = "http://" + srv.InstanceAddr(i)
	}
	report, err := crowdcdn.ReplayTrace(targets[0], world, tr, crowdcdn.LoadgenOptions{Targets: targets})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, sr := range report.Slots {
		status := "scheduled"
		if !sr.Scheduled {
			status = "empty"
		}
		fmt.Printf("slot %d: sent %d accepted %d rejected %d %s epoch %d digest %s\n",
			sr.Slot, sr.Sent, sr.Accepted, sr.Rejected, status, sr.Epoch, sr.Digest)
	}
	if err := loadgen.MatchOffline(report, offline); err != nil {
		return err
	}
	fmt.Printf("%d scheduled slots serve the offline plans' digests\n", len(offline))

	// Every frontend must be serving the exact same (epoch, digest).
	wantEpoch, wantDigest := srv.InstanceEpochDigest(0)
	for i := 0; i < srv.NumInstances(); i++ {
		epoch, digest := srv.InstanceEpochDigest(i)
		fmt.Printf("frontend %d: serving epoch %d digest %s\n", i, epoch, digest)
		if epoch != wantEpoch || digest != wantDigest {
			return fmt.Errorf("frontend %d serves (epoch %d, %s), frontend 0 (epoch %d, %s)",
				i, epoch, digest, wantEpoch, wantDigest)
		}
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if report.Accepted != int64(len(tr.Requests)) || report.Rejected != 0 {
		return fmt.Errorf("accepted %d rejected %d of %d requests", report.Accepted, report.Rejected, len(tr.Requests))
	}
	for _, sr := range report.Slots {
		if sr.Sent > 0 && !sr.Scheduled {
			return fmt.Errorf("slot %d ingested %d requests but scheduled no plan", sr.Slot, sr.Sent)
		}
	}
	fmt.Printf("smoke ok: %d requests over %d frontends, %d plans\n",
		report.Accepted, srv.NumInstances(), len(srv.Plans()))
	return nil
}

// runCrashSmoke is the durability end-to-end check: drive a generated
// trace through a WAL-backed serving tier over real HTTP, kill the
// process state abruptly mid-slot (no flush, no graceful drain),
// restart from the on-disk log, finish the trace, and require every
// slot's plan to be byte-identical to an uninterrupted offline
// simulation of the same trace.
func runCrashSmoke(seed int64, instances int, walDir, fsync string, ckptEvery int) error {
	world, tr, err := crowdcdn.Generate(smokeConfig(seed))
	if err != nil {
		return err
	}
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		return err
	}
	if instances <= 0 {
		// Recovery must rebuild the whole fleet's state, so the crash
		// smoke defaults to a real multi-frontend tier.
		instances = 3
	}
	var reg *crowdcdn.MetricsRegistry // of the newest boot
	boot := func() (*crowdcdn.Server, error) {
		reg = crowdcdn.NewMetricsRegistry()
		return crowdcdn.NewServer(crowdcdn.ServerConfig{
			World:           world,
			Instances:       instances,
			Registry:        reg,
			PlanHistory:     tr.Slots + 1,
			QueueBound:      1 << 26,
			WALDir:          walDir,
			Fsync:           fsync,
			CheckpointEvery: ckptEvery,
		})
	}

	// Half the crash slot's requests become durable, then the tier dies.
	bySlot := tr.BySlot()
	crashSlot := tr.Slots / 2
	total := len(bySlot[crashSlot])
	drill, err := loadgen.CrashDrill(boot, tr, []loadgen.CrashPoint{{Slot: crashSlot, After: total / 2}})
	if err != nil {
		return err
	}
	st := drill.Recovered[0]
	if st.Records == 0 {
		return fmt.Errorf("restart recovered no WAL records")
	}
	// The reboot must have left recovery's signals in its registry.
	counters := make(map[string]bool)
	for _, c := range reg.Snapshot(false).Counters {
		counters[c.Name] = true
	}
	for _, name := range []string{"wal.recover_us", "wal.recover_plan_verify_us",
		"server.boot.index_us", "server.boot.pending_fold_us", "server.boot.install_us"} {
		if !counters[name] {
			return fmt.Errorf("restart left no %s in the registry", name)
		}
	}
	for slot, reqs := range bySlot {
		n := len(reqs)
		if slot == crashSlot {
			fmt.Printf("killed tier mid-slot %d after %d/%d requests\n", slot, total/2, total)
			fmt.Printf("restarted from %s: slot %d, %d records replayed, %d torn bytes truncated\n",
				walDir, st.Slot, st.Records, st.TruncatedBytes)
			n -= total / 2
		}
		fmt.Printf("slot %d: scheduled after %d requests\n", slot, n)
	}

	if len(drill.Plans) != len(offline) {
		return fmt.Errorf("online scheduled %d slots, offline %d", len(drill.Plans), len(offline))
	}
	for slot, want := range offline {
		if drill.Plans[slot] != want {
			return fmt.Errorf("slot %d: plan after kill/restart differs from offline simulation", slot)
		}
	}
	fmt.Printf("crash smoke ok: %d slots byte-identical to offline after kill/restart at slot %d\n",
		len(drill.Plans), crashSlot)
	return nil
}

func loadWorld(path string, seed int64) (*crowdcdn.World, error) {
	if path == "" {
		world, _, err := crowdcdn.Generate(smokeConfig(seed))
		return world, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	world, err := crowdcdn.ReadWorld(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return world, nil
}
