package loadgen

import (
	"encoding/hex"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// OfflinePlans is the reference every online run is held to: sim.Run
// of the trace under RBCAer with core.DefaultParams, the parameters the
// server schedules with, returning each scheduled slot's canonical plan
// bytes, hex-encoded like PlanRecord.Canonical.
func OfflinePlans(world *trace.World, tr *trace.Trace) (map[int]string, error) {
	plans := make(map[int]string)
	_, err := sim.Run(world, tr, scheme.NewRBCAer(core.DefaultParams()), sim.Options{
		PlanSink: func(slot int, plan *core.Plan) {
			plans[slot] = hex.EncodeToString(plan.Canonical())
		},
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: offline reference run: %w", err)
	}
	return plans, nil
}

// CrashPoint kills the tier during slot Slot, once After of that
// slot's requests have been accepted. After 0 is a crash right after
// the previous slot's boundary.
type CrashPoint struct {
	Slot  int
	After int
}

// DrillReport is what a crash drill observed.
type DrillReport struct {
	// Plans maps each scheduled slot to the hex canonical bytes of the
	// plan the tier published for it (compare with OfflinePlans).
	Plans map[int]string
	// Recovered[i] is the recovery summary of the tier rebooted after
	// the i-th crash point.
	Recovered []*wal.State
}

// CrashDrill drives the trace slot by slot through a WAL-backed
// serving tier over real HTTP — requests posted by location, in order,
// round-robin over every frontend, so each kill lands at an exact
// request boundary. boot builds the tier on its WAL directory; the
// drill starts it, and at every crash point kills it abruptly (no
// flush, no graceful drain), boots it again, and requires the
// recovered slot counter to be the slot the crash interrupted. Crash
// points must be ordered by (Slot, After). A slot that carried
// requests must schedule; the tier is closed gracefully at the end
// and killed on any error.
func CrashDrill(boot func() (*server.Server, error), tr *trace.Trace, crashes []CrashPoint) (*DrillReport, error) {
	// The drill's own client: connections pooled against a killed tier
	// are dropped after each Kill, so no stale keep-alive reaches
	// whatever the reboot binds to those ports, and nobody else's pool
	// is touched.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	var srv *server.Server
	start := func() error {
		next, err := boot()
		if err != nil {
			return err
		}
		srv = next
		return srv.Start()
	}
	if err := start(); err != nil {
		return nil, err
	}
	defer func() { srv.Kill() }() // a no-op after the Close below

	post := func(bodies [][]byte, from, to int) error {
		for i := from; i < to; i++ {
			target := "http://" + srv.InstanceAddr(i%srv.NumInstances())
			status, err := postIngest(client, target, bodies[i])
			if err != nil {
				return err
			}
			if status != http.StatusAccepted {
				return fmt.Errorf("loadgen: ingest status %d", status)
			}
		}
		return nil
	}

	rep := &DrillReport{Plans: make(map[int]string)}
	for slot, reqs := range tr.BySlot() {
		bodies, err := encodeSlot(reqs)
		if err != nil {
			return nil, err
		}
		sent := 0
		for ; len(crashes) > 0 && crashes[0].Slot == slot; crashes = crashes[1:] {
			after := crashes[0].After
			if after < sent || after > len(bodies) {
				return nil, fmt.Errorf("loadgen: crash point (slot %d, after %d) outside the slot's remaining requests %d..%d",
					slot, after, sent, len(bodies))
			}
			if err := post(bodies, sent, after); err != nil {
				return nil, err
			}
			sent = after
			srv.Kill()
			client.CloseIdleConnections()
			if err := start(); err != nil {
				return nil, fmt.Errorf("loadgen: restart after crash in slot %d: %w", slot, err)
			}
			st := srv.WALState()
			if st == nil {
				return nil, fmt.Errorf("loadgen: restart after crash in slot %d recovered no WAL state", slot)
			}
			if st.Slot != slot {
				return nil, fmt.Errorf("loadgen: restart recovered slot %d, want %d", st.Slot, slot)
			}
			rep.Recovered = append(rep.Recovered, st)
		}
		if err := post(bodies, sent, len(bodies)); err != nil {
			return nil, err
		}
		adv, err := advance(client, "http://"+srv.Addr())
		if err != nil {
			return nil, err
		}
		if adv.Slot != slot {
			return nil, fmt.Errorf("loadgen: advance closed slot %d while driving slot %d", adv.Slot, slot)
		}
		if !adv.Scheduled {
			if len(reqs) > 0 {
				return nil, fmt.Errorf("loadgen: slot %d did not schedule", slot)
			}
			continue
		}
		for _, rec := range srv.Plans() {
			if rec.Slot == slot {
				rep.Plans[slot] = rec.Canonical
			}
		}
	}
	if len(crashes) > 0 {
		return nil, fmt.Errorf("loadgen: crash point (slot %d, after %d) is out of order or outside the %d-slot trace",
			crashes[0].Slot, crashes[0].After, tr.Slots)
	}
	client.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("loadgen: tier shutdown: %w", err)
	}
	return rep, nil
}
