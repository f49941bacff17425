package scenario

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/trace"
)

// executeServe runs a serve-mode scenario: the trace is first scheduled
// offline (sim.Run, the reference), then driven slot by slot through a
// real WAL-backed multi-frontend serving tier over HTTP. At each crash
// event the tier is killed abruptly mid-slot — half the slot's requests
// accepted, no flush, no graceful drain — and restarted from the
// on-disk log. Every slot's online plan must be byte-identical to the
// offline one; the outcome is published as serve.* counters so
// run-level assertions can pin it.
func (doc *Doc) executeServe(opt ExecOptions) (*Report, error) {
	cfg := doc.World
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: generating world: %w", err)
	}
	world.OverrideCapacities(doc.Spec.CapacityFrac, doc.Spec.CacheFrac)

	// Each crash lands mid-slot: half the slot's requests accepted.
	// The decoder keeps crash slots strictly increasing inside the run.
	bySlot := tr.BySlot()
	var crashes []loadgen.CrashPoint
	for _, slot := range doc.Crashes {
		crashes = append(crashes, loadgen.CrashPoint{Slot: slot, After: len(bySlot[slot]) / 2})
	}

	simSeed := doc.Spec.Seed
	if simSeed == 0 {
		simSeed = cfg.Seed
	}
	offline, err := loadgen.OfflinePlans(world, tr)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	instances := doc.Spec.Instances
	if instances == 0 {
		instances = 2
	}
	fsync := doc.Spec.Fsync
	if fsync == "" {
		fsync = "always"
	}
	walDir, err := os.MkdirTemp("", "scenario-wal-")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer os.RemoveAll(walDir)

	boot := func() (*server.Server, error) {
		return server.New(server.Config{
			World:           world,
			Instances:       instances,
			Registry:        obs.NewRegistry(),
			PlanHistory:     cfg.Slots + 1,
			QueueBound:      1 << 20,
			WALDir:          walDir,
			Fsync:           fsync,
			CheckpointEvery: doc.Spec.CheckpointEvery,
		})
	}
	drill, err := loadgen.CrashDrill(boot, tr, crashes)
	if err != nil {
		return nil, fmt.Errorf("scenario: serve tier: %w", err)
	}
	online := drill.Plans

	reg := obs.NewRegistry()
	reg.Counter("serve.crashes").Add(int64(len(drill.Recovered)))
	matched := reg.Counter("serve.plans_match")
	mismatched := reg.Counter("serve.plans_mismatched")
	recovered := reg.Counter("serve.recovered_records")
	for _, st := range drill.Recovered {
		recovered.Add(int64(st.Records))
	}
	for slot, want := range offline {
		if online[slot] == want {
			matched.Inc()
		} else {
			mismatched.Inc()
		}
	}
	for slot := range online {
		if _, ok := offline[slot]; !ok {
			mismatched.Inc()
		}
	}

	rep := &Report{
		Name:            doc.Name,
		Scheme:          doc.schemeName(),
		Hotspots:        len(world.Hotspots),
		Videos:          world.NumVideos,
		Slots:           cfg.Slots,
		Seed:            simSeed,
		Serve:           true,
		ServeInstances:  instances,
		ServeFsync:      fsync,
		Crashes:         len(drill.Recovered),
		PlansMatched:    int(matched.Value()),
		PlansMismatched: int(mismatched.Value()),
	}
	rep.Snapshot = reg.Snapshot(false)
	rep.Results = make([]AssertResult, len(doc.Asserts))
	pass := mismatched.Value() == 0 && len(online) == len(offline)
	for i, a := range doc.Asserts {
		r := AssertResult{Assertion: a}
		v, ok, err := a.evalRun(nil, rep.Snapshot)
		if err != nil {
			r.Err = err.Error()
			r.Pass = false
		} else {
			r.Value = v
			r.Pass = ok
		}
		if !r.Pass {
			pass = false
		}
		rep.Results[i] = r
	}
	rep.Pass = pass
	return rep, nil
}
