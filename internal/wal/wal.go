// Package wal is the durability subsystem of the serving tier: a
// segmented append-only log of length-prefixed, CRC32-framed records
// plus slot-boundary checkpoints, dependency-free (stdlib plus this
// repository's internal packages).
//
// The server logs every accepted ingest, every slot boundary, and
// every scheduled plan before acknowledging them; Open loads the
// newest valid checkpoint and replays the WAL suffix from the log
// position that checkpoint covers — truncating any torn tail to the
// last valid frame — and returns a State provably equal to the durable
// prefix of the previous run. Any plan the State
// carries has been verified exactly like the serving tier's plan
// fan-out — digest check plus the strict one-pass canonical decode
// (core.VerifyCanonical) — and comes decoded, so the server installs
// it without verifying it again. See DESIGN.md §16.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// PolicyAlways group-commits: Sync blocks until the record is on
	// disk, with concurrent waiters amortised into one fsync.
	PolicyAlways Policy = iota
	// PolicyInterval flushes and fsyncs on a timer; Sync returns
	// immediately and a crash may lose up to one interval of records.
	PolicyInterval
	// PolicyNone never fsyncs (the OS flushes at its leisure); a crash
	// may lose everything since the last rotation or checkpoint.
	PolicyNone
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses an fsync policy name; "" selects "always".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "none":
		return PolicyNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or none)", s)
	}
}

// Default option values. DefaultKeepCheckpoints is not an option: it is
// how many of the newest checkpoint files WriteCheckpoint keeps (the
// newest, and the fallback whose position segment GC lags for).
const (
	DefaultInterval        = 50 * time.Millisecond
	DefaultSegmentBytes    = 4 << 20
	DefaultKeepCheckpoints = 2
)

// Options tunes a Log.
type Options struct {
	// Policy is the fsync policy (zero value: PolicyAlways).
	Policy Policy
	// Interval is the PolicyInterval flush cadence. 0 selects
	// DefaultInterval.
	Interval time.Duration
	// SegmentBytes rotates the active segment beyond this size. 0
	// selects DefaultSegmentBytes.
	SegmentBytes int64
	// Registry receives the wal.* counters and the append-latency
	// histogram. Nil allocates a private registry.
	Registry *obs.Registry
}

// Log is an open write-ahead log. Appends are safe for concurrent
// use; Sync group-commits under PolicyAlways.
type Log struct {
	dir  string
	opts Options

	// mu guards the active segment, the buffered writer, and the LSN
	// counter.
	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segIndex uint64
	segBytes int64
	nextLSN  uint64 // next LSN to assign (appended records are 1..nextLSN-1)
	closed   bool
	scratch  []byte
	payload  []byte

	// Group commit: one syncer flushes on behalf of every waiter that
	// arrived while it ran; durableLSN is the high-water mark on disk.
	syncMu     sync.Mutex
	syncCond   *sync.Cond
	durableLSN uint64
	syncing    bool
	syncErr    error // sticky: a failed fsync poisons the log

	// Interval flusher lifecycle (PolicyInterval only).
	flushStop chan struct{}
	flushDone chan struct{}
	flushOnce sync.Once

	// Checkpoint bookkeeping: the last assigned checkpoint sequence and
	// the segment of the last written checkpoint's position (GC lags
	// one checkpoint, so the older retained checkpoint keeps its
	// suffix). The next boot would scan replayCarry records plus those
	// appended after LSN replayBase: this boot's recovered suffix and
	// every append until it writes a checkpoint, then only the appends
	// after that checkpoint's position.
	ckptSeq     uint64
	prevSegment uint64
	replayBase  uint64
	replayCarry int

	appends     *obs.Counter
	fsyncs      *obs.Counter
	bytesC      *obs.Counter
	checkpoints *obs.Counter
	appendUS    *obs.Histogram
}

// segmentName renders a segment file name.
func segmentName(index uint64) string {
	return fmt.Sprintf("wal-%016d.seg", index)
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, de := range des {
		var idx uint64
		if n, err := fmt.Sscanf(de.Name(), "wal-%d.seg", &idx); err == nil && n == 1 &&
			de.Name() == segmentName(idx) {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return idxs, nil
}

// Open opens (or creates) the log in dir, runs recovery, and returns
// the log ready for appends plus the recovered State. Recovery:
// leftover temp files are removed, the newest checkpoint that passes
// CRC, strict decoding, and plan verification is loaded, and the log
// is scanned in order from that checkpoint's position (from segment 1
// without one) — segments below the position are not opened, the scan
// stops at the first invalid frame, physically truncating that segment
// to its valid prefix and deleting all later segments — and each
// surviving record is folded onto the checkpoint as the scan decodes
// it (replay). A checkpoint of another body version fails Open, and so
// does one whose position's segment is missing or shorter than its
// offset: appending there would put records below a durable
// checkpoint's position. Without a checkpoint, a log whose segment 1
// segment GC has collected fails Open too: the records it held are
// gone. A scan that stops at an ingest record of the retired format
// fails Open and leaves the segment as it is.
func Open(dir string, opts Options) (*Log, *State, error) {
	start := time.Now()
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}
	l.syncCond = sync.NewCond(&l.syncMu)
	reg := opts.Registry
	l.appends = reg.Counter("wal.appends")
	l.fsyncs = reg.Counter("wal.fsyncs")
	l.bytesC = reg.Counter("wal.bytes")
	l.checkpoints = reg.Counter("wal.checkpoints")
	l.appendUS = reg.Histogram("wal.append_us", obs.PowersOf2Buckets(20))

	// Drop temp files a crashed checkpoint write left behind.
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}

	ckpt, maxCkptSeq, ckptVerify, err := loadCheckpoints(dir)
	if err != nil {
		return nil, nil, err
	}
	l.ckptSeq = maxCkptSeq

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var from int64 // where the scan of segs[0] starts
	if ckpt != nil {
		i, found := slices.BinarySearch(segs, ckpt.Pos.Segment)
		if !found {
			return nil, nil, fmt.Errorf("wal: %s: segment %s of its position is missing",
				checkpointName(ckpt.Seq), segmentName(ckpt.Pos.Segment))
		}
		segs, from = segs[i:], ckpt.Pos.Offset
	} else if len(segs) > 0 && segs[0] != 1 {
		return nil, nil, fmt.Errorf("wal: no checkpoint loads and segment %s, where the log starts, is missing",
			segmentName(1))
	}
	rp := newReplay(ckpt)
	sc := segmentScanner{window: readWindow}
	var truncatedBytes int64
	for i, idx := range segs {
		path := filepath.Join(dir, segmentName(idx))
		validLen, size, err := sc.scan(path, from, rp.apply)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		from = 0
		if validLen == size {
			continue
		}
		// Torn tail or corruption: truncate this segment to its valid
		// prefix and delete every later segment — records beyond the
		// first invalid frame are not part of the durable prefix.
		truncatedBytes += size - validLen
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating %s: %w", path, err)
		}
		for _, later := range segs[i+1:] {
			lp := filepath.Join(dir, segmentName(later))
			if fi, err := os.Stat(lp); err == nil {
				truncatedBytes += fi.Size()
			}
			if err := os.Remove(lp); err != nil {
				return nil, nil, fmt.Errorf("wal: removing %s: %w", lp, err)
			}
		}
		segs = segs[:i+1]
		break
	}

	st := rp.finish()
	st.TruncatedBytes = truncatedBytes
	st.PlanVerify += ckptVerify
	l.replayCarry = st.Records

	// Open the newest segment for appends (creating the first one on a
	// fresh dir), and make the recovery-time truncations durable.
	l.segIndex = 1
	if n := len(segs); n > 0 {
		l.segIndex = segs[n-1]
	}
	path := filepath.Join(dir, segmentName(l.segIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		l.segBytes = fi.Size()
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	if opts.Policy == PolicyInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	st.Elapsed = time.Since(start)
	reg.Counter("wal.recovered_records").Add(int64(st.Records))
	reg.Counter("wal.truncated_tail").Add(truncatedBytes)
	reg.Counter("wal.recover_us").Add(st.Elapsed.Microseconds())
	reg.Counter("wal.recover_plan_verify_us").Add(st.PlanVerify.Microseconds())
	return l, st, nil
}

// loadCheckpoints loads the newest fully valid checkpoint (nil when
// none), its plan decoded, and the highest checkpoint sequence present
// in any file name, so newly written checkpoints never collide with a
// damaged one; verify is the time spent verifying checkpointed plans.
// A checkpoint of another body version is an error, not damage to fall
// back from.
func loadCheckpoints(dir string) (ckpt *Checkpoint, maxSeq uint64, verify time.Duration, err error) {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	if len(seqs) > 0 {
		maxSeq = seqs[0]
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, checkpointName(seq)))
		if err != nil {
			continue
		}
		c, err := unmarshalCheckpoint(data)
		if errors.Is(err, errCheckpointVersion) {
			return nil, 0, 0, fmt.Errorf("%s: %w", checkpointName(seq), err)
		}
		if err != nil {
			continue
		}
		if c.Plan != nil {
			if c.Plan.Decoded = verifyPlan(c.Plan.Canonical, c.Plan.Digest, &verify); c.Plan.Decoded == nil {
				continue
			}
		}
		return c, maxSeq, verify, nil
	}
	return nil, maxSeq, verify, nil
}

// flushLoop is the PolicyInterval flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			target := l.nextLSN - 1
			err := l.flushLocked()
			l.mu.Unlock()
			l.settle(target, err)
		case <-l.flushStop:
			return
		}
	}
}

// settle records the outcome of a flush that covered every record up
// to target: the durable high-water mark rises, or the error poisons
// the log.
func (l *Log) settle(target uint64, err error) {
	l.syncMu.Lock()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.durableLSN {
		l.durableLSN = target
	}
	l.syncMu.Unlock()
}

// flushLocked flushes the buffered writer and fsyncs the active
// segment. Callers hold l.mu.
func (l *Log) flushLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Inc()
	return nil
}

// append frames and buffers one record, rotating the segment when
// full, and returns the record's LSN.
func (l *Log) append(r *record) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log closed")
	}
	l.payload = r.encode(l.payload[:0])
	l.scratch = appendFrame(l.scratch[:0], l.payload)
	n := len(l.scratch)
	if _, err := l.bw.Write(l.scratch); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.segBytes += int64(n)
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	l.mu.Unlock()
	l.appends.Inc()
	l.bytesC.Add(int64(n))
	l.appendUS.Observe(time.Since(start).Microseconds())
	return lsn, nil
}

// rotateLocked seals the active segment (flush + fsync) and starts
// the next one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	// Everything up to this point is now durable.
	l.settle(l.nextLSN-1, nil)
	l.segIndex++
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.segIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segBytes = 0
	return syncDir(l.dir)
}

// AppendIngest logs one accepted demand increment: count requests for
// (hotspot, video), tagged with the owning frontend's current slot and
// the frontend's id (provenance only: recovery does not read it). The
// third argument is ignored and not logged; it stays until the
// benchmark's callers stop passing it.
func (l *Log) AppendIngest(slot, instance int, _ uint64, hotspot, video int, count int64) (uint64, error) {
	return l.append(&record{kind: recIngest, slot: slot, instance: instance,
		hotspot: hotspot, video: video, count: count})
}

// AppendAdvance logs a slot boundary (the drained slot number).
func (l *Log) AppendAdvance(slot int) (uint64, error) {
	return l.append(&record{kind: recAdvance, slot: slot})
}

// AppendPlan logs a scheduled plan's canonical bytes and digest.
func (l *Log) AppendPlan(slot int, epoch int64, digest uint64, canonical []byte) (uint64, error) {
	return l.append(&record{kind: recPlan, slot: slot, epoch: epoch, digest: digest, canonical: canonical})
}

// AppendRoundErr logs that slot's round failed its contract and the
// drained demand was dropped.
func (l *Log) AppendRoundErr(slot int) (uint64, error) {
	return l.append(&record{kind: recRoundErr, slot: slot})
}

// Sync makes every record up to lsn durable per the policy: under
// PolicyAlways it blocks until an fsync covers lsn (group commit —
// one fsync serves every waiter that arrived while it ran); under
// PolicyInterval and PolicyNone it returns immediately (the interval
// flusher / the OS decide). A failed fsync is sticky: the log is
// poisoned and every later Sync fails.
func (l *Log) Sync(lsn uint64) error {
	if l.opts.Policy != PolicyAlways {
		l.syncMu.Lock()
		err := l.syncErr
		l.syncMu.Unlock()
		return err
	}
	l.syncMu.Lock()
	for {
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if l.durableLSN >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			l.syncing = true
			break
		}
		l.syncCond.Wait()
	}
	l.syncMu.Unlock()

	l.mu.Lock()
	var target uint64
	var err error
	if l.closed {
		err = fmt.Errorf("wal: log closed")
	} else {
		target = l.nextLSN - 1
		err = l.flushLocked()
	}
	l.mu.Unlock()

	l.syncMu.Lock()
	l.syncing = false
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.durableLSN {
		l.durableLSN = target
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		return err
	}
	if target < lsn {
		// Only possible if lsn was never appended; treat as caller bug.
		return fmt.Errorf("wal: sync past end of log (lsn %d > %d)", lsn, target)
	}
	return nil
}

// LastLSN returns the newest appended LSN (0 before any append).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the newest LSN known to be on disk.
func (l *Log) DurableLSN() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.durableLSN
}

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.opts.Policy }

// Position returns the log's append position: the segment appends go
// to and the bytes appended to it, buffered ones included. A checkpoint
// stores the position read in the same hold as its state (Checkpoint.Pos).
func (l *Log) Position() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Segment: l.segIndex, Offset: l.segBytes, lsn: l.nextLSN - 1}
}

// ReplayRecords returns how many records the next boot would scan if
// this process crashed now: those appended after the newest written
// checkpoint's position, or, before this Log writes one, the suffix
// its own recovery scanned plus every append.
func (l *Log) ReplayRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayCarry + int(l.nextLSN-1-l.replayBase)
}

// CheckpointSeq returns the last written checkpoint sequence.
func (l *Log) CheckpointSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// WriteCheckpoint makes the log durable through cp.Pos (flush and
// fsync, whatever the policy), then atomically persists cp (assigning
// its sequence), prunes checkpoints beyond DefaultKeepCheckpoints, and
// garbage-collects the segments below the previous checkpoint's
// position: GC lags one checkpoint, so the older retained checkpoint
// keeps the suffix it would replay if the newest one turns out damaged.
func (l *Log) WriteCheckpoint(cp *Checkpoint) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	target := l.nextLSN - 1
	err := l.flushLocked()
	if err == nil {
		l.ckptSeq++
		cp.Seq = l.ckptSeq
	}
	l.mu.Unlock()
	l.settle(target, err)
	if err != nil {
		return fmt.Errorf("wal: making the log durable for a checkpoint: %w", err)
	}

	if err := writeFileAtomic(filepath.Join(l.dir, checkpointName(cp.Seq)), marshalCheckpoint(cp)); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	l.checkpoints.Inc()
	l.mu.Lock()
	gcBefore := l.prevSegment
	l.prevSegment = cp.Pos.Segment
	l.replayBase, l.replayCarry = cp.Pos.lsn, 0
	l.mu.Unlock()

	if seqs, err := listCheckpoints(l.dir); err == nil {
		for _, seq := range seqs[min(len(seqs), DefaultKeepCheckpoints):] {
			os.Remove(filepath.Join(l.dir, checkpointName(seq)))
		}
	}
	if gcBefore > 0 {
		if segs, err := listSegments(l.dir); err == nil {
			for _, idx := range segs {
				if idx < gcBefore {
					os.Remove(filepath.Join(l.dir, segmentName(idx)))
				}
			}
		}
	}
	return syncDir(l.dir)
}

// Close flushes, fsyncs, and closes the log cleanly.
func (l *Log) Close() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.flushLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the log the way a process crash would: buffered but
// unflushed bytes are dropped and the file is closed without a final
// fsync. Only the harnesses use it (Server.Kill); a real crash needs
// no call at all.
func (l *Log) Crash() {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	// Deliberately no bw.Flush(): everything still buffered is lost,
	// exactly like a crash before the kernel saw the bytes.
	l.f.Close()
}

// stopFlusher stops the interval flusher, if running.
func (l *Log) stopFlusher() {
	if l.flushStop == nil {
		return
	}
	l.flushOnce.Do(func() { close(l.flushStop) })
	<-l.flushDone
}
