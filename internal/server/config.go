package server

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Default configuration values, applied by New for zero-valued fields.
const (
	DefaultQueueBound   = 1 << 20
	DefaultPlanHistory  = 64
	DefaultDrainTimeout = 5 * time.Second
	// DefaultCheckpointEvery is how many slots (scheduled, dropped or
	// empty) elapse between WAL checkpoints when WALDir is set.
	DefaultCheckpointEvery = 8

	// maxInstances bounds the in-process frontend fleet: each instance
	// carries its own accumulator, listener, and serving plan.
	maxInstances = 64
	// maxBodyBytes caps an ingest request body; a larger one is answered
	// 413 and counted as server.ingest.oversized.
	maxBodyBytes = 1 << 16
	// maxSnapshotQueue bounds the number of slot snapshots awaiting
	// recomputation. When the scheduler falls this far behind the slot
	// ticker, newer snapshots are coalesced into the newest queued one
	// (demand counts commute) instead of growing the queue without
	// bound or blocking the ticker; coalesced ticks surface as the
	// server.slots.coalesced counter.
	maxSnapshotQueue = 4
)

// Config configures an online scheduling server.
type Config struct {
	// World is the deployment the server schedules for. Required.
	World *trace.World
	// Addr is the listen address ("host:port"; port 0 picks an
	// ephemeral port). Empty selects "127.0.0.1:0".
	Addr string
	// Instances is the number of frontend instances the serving tier
	// runs in-process. Hotspot h's ingestion belongs to instance
	// h mod Instances (each instance has its own accumulator
	// and its own listener), every slot's plan is digest-verified
	// once and fans out to all of them as one shared serving table,
	// and all of them route redirect lookups through its one router,
	// so a hotspot's answers do not depend on which frontend takes
	// them. 0 selects 1 (the single-instance server).
	Instances int
	// QueueBound caps the requests a frontend instance has accepted
	// but not yet handed to a slot. An ingest whose owning frontend is
	// at the bound is rejected with 429 (backpressure); accepted
	// requests are never dropped. 0 selects DefaultQueueBound.
	QueueBound int
	// SlotDuration is the timeslot length: every SlotDuration the
	// ticker snapshots accumulated demand and hands it to the
	// asynchronous recompute worker. 0 disables the ticker — slots
	// then advance only through AdvanceSlot / POST /admin/advance,
	// the deterministic mode the e2e harness replays traces in.
	SlotDuration time.Duration
	// PlanHistory is the number of per-slot plan records (canonical
	// bytes + digest) retained for /plans. 0 selects
	// DefaultPlanHistory.
	PlanHistory int
	// DrainTimeout bounds graceful shutdown: how long Close waits for
	// in-flight HTTP requests before cutting them off. 0 selects
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// WALDir, when non-empty, enables the durability subsystem
	// (internal/wal): every accepted ingest, slot boundary, and
	// scheduled plan is logged there before being acknowledged, New
	// recovers the durable state on boot, and slot-boundary checkpoints
	// bound replay time. Empty disables durability (the pre-WAL
	// in-memory server).
	WALDir string
	// Fsync selects the WAL fsync policy: "always" (group commit,
	// every acknowledgment durable), "interval" (timer flush), or
	// "none". Empty selects "always". Only meaningful with WALDir.
	Fsync string
	// FsyncInterval is the "interval" policy's flush cadence. 0
	// selects wal.DefaultInterval. Only meaningful with WALDir.
	FsyncInterval time.Duration
	// CheckpointEvery writes a WAL checkpoint every this many slots,
	// scheduled, dropped or empty. 0 selects DefaultCheckpointEvery.
	// Only meaningful with WALDir.
	CheckpointEvery int
	// Registry, when non-nil, receives the server's metrics
	// (server.ingest.*, server.lookup.*, server.slots*, server.plan.*,
	// and the server.slot.latency_us histogram). Nil allocates a
	// private registry so counters still work internally.
	Registry *obs.Registry
	// Tracer, when non-nil, receives one "swap" event per recomputed
	// slot.
	Tracer *obs.Tracer
}

// Validate checks the configuration. Zero values are valid wherever a
// default exists; only actively inconsistent settings are rejected.
func (c Config) Validate() error {
	if c.World == nil {
		return fmt.Errorf("server: nil world")
	}
	if err := c.World.Validate(); err != nil {
		return fmt.Errorf("server: invalid world: %w", err)
	}
	if c.Instances < 0 {
		return fmt.Errorf("server: negative Instances %d", c.Instances)
	}
	if c.Instances > maxInstances {
		return fmt.Errorf("server: Instances %d above the %d instance cap", c.Instances, maxInstances)
	}
	if c.QueueBound < 0 {
		return fmt.Errorf("server: negative QueueBound %d", c.QueueBound)
	}
	if c.SlotDuration < 0 {
		return fmt.Errorf("server: negative SlotDuration %v", c.SlotDuration)
	}
	if c.PlanHistory < 0 {
		return fmt.Errorf("server: negative PlanHistory %d", c.PlanHistory)
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("server: negative DrainTimeout %v", c.DrainTimeout)
	}
	if c.WALDir == "" {
		if c.Fsync != "" {
			return fmt.Errorf("server: Fsync %q without WALDir", c.Fsync)
		}
		if c.FsyncInterval != 0 {
			return fmt.Errorf("server: FsyncInterval %v without WALDir", c.FsyncInterval)
		}
		if c.CheckpointEvery != 0 {
			return fmt.Errorf("server: CheckpointEvery %d without WALDir", c.CheckpointEvery)
		}
		return nil
	}
	if _, err := wal.ParsePolicy(c.Fsync); err != nil {
		return fmt.Errorf("server: Fsync: %w", err)
	}
	if c.FsyncInterval < 0 {
		return fmt.Errorf("server: negative FsyncInterval %v", c.FsyncInterval)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("server: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	if fi, err := os.Stat(c.WALDir); err == nil && !fi.IsDir() {
		return fmt.Errorf("server: WALDir %q is not a directory", c.WALDir)
	}
	return nil
}

// withDefaults returns the config with every zero-valued knob replaced
// by its default.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Instances == 0 {
		c.Instances = 1
	}
	if c.QueueBound == 0 {
		c.QueueBound = DefaultQueueBound
	}
	if c.PlanHistory == 0 {
		c.PlanHistory = DefaultPlanHistory
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.WALDir != "" {
		if c.FsyncInterval == 0 {
			c.FsyncInterval = wal.DefaultInterval
		}
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = DefaultCheckpointEvery
		}
	}
	return c
}
