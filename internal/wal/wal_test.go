package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// mkPlacement builds a placement from ascending rows.
func mkPlacement(rows ...[]int32) core.PlacementRuns {
	var p core.PlacementRuns
	for _, row := range rows {
		p.AppendRow(row)
	}
	return p
}

// testPlanBytes fabricates a small valid plan whose content varies
// with epoch, returning its canonical bytes and digest. The bytes are
// AppendCanonical's own, so core.DecodeCanonical and verifyPlanBytes
// accept them.
func testPlanBytes(t testing.TB, epoch int64) ([]byte, uint64) {
	t.Helper()
	p := &core.Plan{
		Flows:         []core.FlowEdge{{From: 0, To: 1, Amount: epoch + 3}},
		Redirects:     []core.Redirect{{From: 1, To: 0, Video: 2, Count: epoch}},
		Placement:     mkPlacement([]int32{1, 2}, []int32{0}),
		OverflowToCDN: []int64{0, epoch},
	}
	c := p.Canonical()
	d := core.DigestOf(c)
	if !verifyPlanBytes(c, d) {
		t.Fatalf("fabricated plan does not verify")
	}
	return c, d
}

// must adapts a (lsn, error) append result into a fatal check.
func must(t testing.TB) func(uint64, error) uint64 {
	return func(lsn uint64, err error) uint64 {
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		return lsn
	}
}

// writeScriptedLog writes a fixed record script through the public
// API: two scheduled slots, one contract-error slot, and pending
// demand for the next slot, across two frontends.
func writeScriptedLog(t *testing.T, dir string, segBytes int64) {
	t.Helper()
	l, st, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.Records != 0 || st.Slot != 0 || st.Plan != nil {
		t.Fatalf("fresh dir recovered non-empty state: %+v", st)
	}
	c0, d0 := testPlanBytes(t, 1)
	c1, d1 := testPlanBytes(t, 2)
	m := must(t)

	m(l.AppendIngest(0, 0, 0, 0, 0, 1))
	m(l.AppendIngest(0, 0, 0, 1, 3, 2))
	m(l.AppendIngest(0, 1, 0, 2, 1, 1))
	m(l.AppendAdvance(0))
	m(l.AppendPlan(0, 1, d0, c0))

	m(l.AppendIngest(1, 0, 0, 0, 2, 1))
	m(l.AppendAdvance(1))
	m(l.AppendPlan(1, 2, d1, c1))

	m(l.AppendIngest(2, 1, 0, 3, 1, 1))
	m(l.AppendAdvance(2))
	m(l.AppendRoundErr(2))

	lsn := m(l.AppendIngest(3, 0, 0, 1, 1, 1))
	if err := l.Sync(lsn); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// readSegments returns every retained segment's bytes, in order.
func readSegments(t *testing.T, dir string) [][]byte {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listing segments: %v", err)
	}
	out := make([][]byte, len(idxs))
	for i, idx := range idxs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			t.Fatalf("reading segment: %v", err)
		}
		out[i] = data
	}
	return out
}

// copyDir clones every regular file of src into dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading %s: %v", src, err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatalf("copy: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatalf("copy: %v", err)
		}
	}
}

// stateCore projects a State onto its comparable durable content, its
// demand merged.
type stateCore struct {
	Slot            int
	Epoch           int64
	PlanSlot        int
	PlanEpoch       int64
	PlanDigest      uint64
	PlanBytes       string
	Pending         []Entry
	PendingRequests int64
	Queue           []QueuedSlot
}

func coreOf(st *State) stateCore {
	sc := stateCore{
		Slot:            st.Slot,
		Epoch:           st.Epoch,
		Pending:         merged(st.Pending),
		PendingRequests: st.PendingRequests,
		Queue:           mergedQueue(st.Queue),
	}
	if st.Plan != nil {
		sc.PlanSlot = st.Plan.Slot
		sc.PlanEpoch = st.Plan.Epoch
		sc.PlanDigest = st.Plan.Digest
		sc.PlanBytes = string(st.Plan.Canonical)
	}
	return sc
}

func requireStateEqual(t *testing.T, got, want *State, ctx string) {
	t.Helper()
	g, w := coreOf(got), coreOf(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: recovered state diverged from durable prefix\n got: %+v\nwant: %+v", ctx, g, w)
	}
	if got.Records != want.Records || got.CheckpointSeq != want.CheckpointSeq {
		t.Fatalf("%s: replayed %d records on checkpoint %d, want %d on %d",
			ctx, got.Records, got.CheckpointSeq, want.Records, want.CheckpointSeq)
	}
	if got.Plan != nil && !verifyPlanBytes(got.Plan.Canonical, got.Plan.Digest) {
		t.Fatalf("%s: recovery installed an unverified plan", ctx)
	}
	if got.Plan != nil && got.Plan != want.Plan && got.Plan.Decoded == nil {
		t.Fatalf("%s: recovery verified the log's plan but kept no decoded form", ctx)
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeScriptedLog(t, dir, DefaultSegmentBytes)
	l, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()

	if st.Slot != 3 {
		t.Errorf("slot counter %d, want 3", st.Slot)
	}
	if st.Epoch != 2 {
		t.Errorf("epoch %d, want 2", st.Epoch)
	}
	c1, d1 := testPlanBytes(t, 2)
	if st.Plan == nil || st.Plan.Epoch != 2 || st.Plan.Slot != 1 || st.Plan.Digest != d1 || !bytes.Equal(st.Plan.Canonical, c1) {
		t.Errorf("recovered plan %+v, want slot 1 epoch 2", st.Plan)
	}
	wantPending := []Entry{{Hotspot: 1, Video: 1, Count: 1}}
	if !reflect.DeepEqual(st.Pending, wantPending) {
		t.Errorf("pending %+v, want %+v", st.Pending, wantPending)
	}
	if st.PendingRequests != 1 {
		t.Errorf("pending requests %d, want 1", st.PendingRequests)
	}
	// Slot 2's demand was consumed by the durable contract-error
	// record, mirroring the live server dropping it.
	if len(st.Queue) != 0 {
		t.Errorf("queue %+v, want empty", st.Queue)
	}
	if st.Plan.Decoded == nil || st.Plan.Decoded.Placement.Rows() != 2 {
		t.Errorf("recovered plan not handed back decoded: %+v", st.Plan.Decoded)
	}
	if st.Records != 12 {
		t.Errorf("recovered records %d, want 12", st.Records)
	}
	if st.TruncatedBytes != 0 {
		t.Errorf("truncated %d bytes on a clean log", st.TruncatedBytes)
	}
}

// TestTornTailRecovery is the truncation half of the crash-injection
// harness: the final segment is cut at every byte offset, and
// recovery must (without panicking or erroring) reconstruct exactly
// the state implied by the surviving valid frame prefix, truncating
// the tail.
func TestTornTailRecovery(t *testing.T) {
	src := t.TempDir()
	writeScriptedLog(t, src, 192) // forces several segments
	segs := readSegments(t, src)
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	var prefixRecs []record
	for _, data := range segs[:len(segs)-1] {
		rs, v := scanRecords(data)
		if v != len(data) {
			t.Fatalf("sealed segment not fully valid")
		}
		prefixRecs = append(prefixRecs, rs...)
	}
	last := segs[len(segs)-1]
	scratch := t.TempDir()
	for off := 0; off <= len(last); off++ {
		dir := filepath.Join(scratch, "t")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDir(t, src, dir)
		idxs, _ := listSegments(dir)
		lastPath := filepath.Join(dir, segmentName(idxs[len(idxs)-1]))
		if err := os.Truncate(lastPath, int64(off)); err != nil {
			t.Fatal(err)
		}

		l, st, err := Open(dir, Options{Policy: PolicyAlways})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		l.Close()

		rs, validLen := scanRecords(last[:off])
		want := referenceState(nil, append(append([]record(nil), prefixRecs...), rs...))
		requireStateEqual(t, st, want, "truncate@"+itoa(off))
		if wantTrunc := int64(off - validLen); st.TruncatedBytes != wantTrunc {
			t.Fatalf("offset %d: truncated %d bytes, want %d", off, st.TruncatedBytes, wantTrunc)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptionRecovery is the corruption half of the harness: a
// single byte is flipped at every offset of every segment. The CRC
// must catch the damage, and recovery must reconstruct exactly the
// records preceding the damaged frame — everything after it
// (including later segments) is discarded.
func TestCorruptionRecovery(t *testing.T) {
	src := t.TempDir()
	writeScriptedLog(t, src, 192)
	segs := readSegments(t, src)
	segRecs := make([][]record, len(segs))
	for i, data := range segs {
		rs, v := scanRecords(data)
		if v != len(data) {
			t.Fatalf("segment %d not fully valid", i)
		}
		segRecs[i] = rs
	}
	scratch := t.TempDir()
	for si, data := range segs {
		ends := frameEnds(data)
		for off := 0; off < len(data); off++ {
			dir := filepath.Join(scratch, "c")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, src, dir)
			idxs, _ := listSegments(dir)
			p := filepath.Join(dir, segmentName(idxs[si]))
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x41
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}

			l, st, err := Open(dir, Options{Policy: PolicyAlways})
			if err != nil {
				t.Fatalf("segment %d offset %d: recovery failed: %v", si, off, err)
			}
			l.Close()

			// The flip lands inside some frame; every record before it
			// (across all earlier segments) survives, nothing after.
			damaged := 0
			for damaged < len(ends) && off >= ends[damaged] {
				damaged++
			}
			var want []record
			for sj := 0; sj < si; sj++ {
				want = append(want, segRecs[sj]...)
			}
			want = append(want, segRecs[si][:damaged]...)
			requireStateEqual(t, st, referenceState(nil, want), "flip@seg"+itoa(si)+"+"+itoa(off))
			if st.TruncatedBytes <= 0 {
				t.Fatalf("segment %d offset %d: corruption not counted as truncated tail", si, off)
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// frameEnds returns the cumulative end offset of each frame in a
// fully valid segment.
func frameEnds(data []byte) []int {
	var ends []int
	off := 0
	for off < len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeaderBytes + n
		ends = append(ends, off)
	}
	return ends
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestCheckpointFallbackToOlder: with the newest checkpoint damaged,
// recovery falls back to the older one rather than fail or trust
// damaged bytes, and scans from the older one's position — whose
// segments segment GC, lagging one checkpoint, left on disk — to the
// state the newest would have given.
func TestCheckpointFallbackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	m := must(t)
	var pending []Entry
	feed := func(n int) {
		for i := 0; i < n; i++ {
			k := len(pending) + 1
			m(l.AppendIngest(0, 0, 0, k%5, k%3, 1))
			pending = append(pending, Entry{Hotspot: k % 5, Video: k % 3, Count: 1})
		}
	}
	checkpoint := func() Position {
		cp := &Checkpoint{Pos: l.Position(), Pending: merged(pending)}
		if err := l.WriteCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		return cp.Pos
	}
	feed(20)
	checkpoint()
	feed(20)
	older := checkpoint()
	feed(20)
	newest := checkpoint()
	feed(5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if older.Segment < 3 || newest.Segment <= older.Segment {
		t.Fatalf("positions %+v and %+v: the test needs segments collected below the older one", older, newest)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0] != older.Segment {
		t.Fatalf("segments %v: want the older checkpoint's segment %d the oldest retained", segs, older.Segment)
	}
	intact := t.TempDir()
	copyDir(t, dir, intact)

	p := filepath.Join(dir, checkpointName(3))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := requireOpenMatchesReference(t, dir, "newest checkpoint damaged")
	want := requireOpenMatchesReference(t, intact, "intact")
	if st.CheckpointSeq != 2 || want.CheckpointSeq != 3 {
		t.Fatalf("recovered from checkpoints %d and %d, want 2 (fallback) and 3", st.CheckpointSeq, want.CheckpointSeq)
	}
	if st.Records != 25 || want.Records != 5 {
		t.Errorf("scanned %d records from the older position and %d from the newest; want 25 and 5",
			st.Records, want.Records)
	}
	if !reflect.DeepEqual(merged(st.Pending), merged(want.Pending)) || st.PendingRequests != 65 || want.PendingRequests != 65 {
		t.Errorf("pending %d / %d requests, want 65 both ways", st.PendingRequests, want.PendingRequests)
	}
}

// TestNoCheckpointAfterGCRefused: with every retained checkpoint
// damaged, recovery has no base state and would have to scan the log
// from segment 1 — but segment GC has collected the segments below the
// older checkpoint's position, and with them requests that were
// acknowledged. Open must refuse by naming the missing segment, not
// hand back the part of the demand the retained segments hold.
func TestNoCheckpointAfterGCRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	m := must(t)
	var pending []Entry
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			m(l.AppendIngest(0, 0, 0, i%5, i%3, 1))
			pending = append(pending, Entry{Hotspot: i % 5, Video: i % 3, Count: 1})
		}
		if err := l.WriteCheckpoint(&Checkpoint{Pos: l.Position(), Pending: merged(pending)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) == 0 || segs[0] == 1 {
		t.Fatalf("segments %v: the test needs segment 1 collected", segs)
	}
	seqs, err := listCheckpoints(dir)
	if err != nil || len(seqs) != DefaultKeepCheckpoints {
		t.Fatalf("checkpoints %v (%v), want %d retained", seqs, err, DefaultKeepCheckpoints)
	}
	for _, seq := range seqs {
		if err := os.WriteFile(filepath.Join(dir, checkpointName(seq)), []byte("damaged"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err == nil || !strings.Contains(err.Error(), segmentName(1)) || !strings.Contains(err.Error(), "missing") {
		var got int64
		if st != nil {
			got = st.PendingRequests
		}
		t.Fatalf("Open err = %v (recovered %d of %d requests), want a refusal naming %s",
			err, got, len(pending), segmentName(1))
	}
}

// retiredIngestFrame is one framed ingest record of the retired
// format: kind 1, then slot, instance, sequence, hotspot, video, count.
func retiredIngestFrame() []byte {
	payload := []byte{recRetired}
	for _, v := range []uint64{0, 1, 7, 2, 3, 1} {
		payload = binary.AppendUvarint(payload, v)
	}
	return appendFrame(nil, payload)
}

// TestRetiredIngestFormatRefused: an ingest frame of the retired
// format (kind 1, a sequence number between the frontend and the
// hotspot) is CRC-valid but not this build's. Open must refuse the log
// by naming the segment and leave its bytes as they are, not truncate
// there as if it were a torn tail or read the fields shifted.
func TestRetiredIngestFormatRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before []record
	}{
		{"first frame", nil},
		{"after records of this build", []record{{kind: recAdvance, slot: 0}, {kind: recIngest, slot: 1, hotspot: 2, video: 3, count: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := append(frames(tc.before), retiredIngestFrame()...)
			seg = append(seg, frames([]record{{kind: recAdvance, slot: 1}})...)
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir, Options{Policy: PolicyAlways})
			if err == nil || !strings.Contains(err.Error(), segmentName(1)) || !strings.Contains(err.Error(), "retired format") {
				t.Fatalf("Open err = %v, want a refusal naming %s and the retired format", err, segmentName(1))
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
				t.Fatalf("segment after the refused Open: %d bytes (%v), want its %d bytes untouched", len(got), err, len(seg))
			}
		})
	}
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: 128, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := must(t)
	for i := 0; i < 40; i++ {
		m(l.AppendIngest(0, 0, 0, i%7, i%11, 1))
	}
	pos1 := l.Position()
	if pos1.Segment < 3 {
		t.Fatalf("expected rotation, still on segment %d", pos1.Segment)
	}
	if err := l.WriteCheckpoint(&Checkpoint{Slot: 0, Pos: pos1,
		Pending: drainEntries(40)}); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 60; i++ {
		m(l.AppendIngest(0, 0, 0, i%7, i%11, 1))
	}
	pos2 := l.Position()
	if err := l.WriteCheckpoint(&Checkpoint{Slot: 0, Pos: pos2,
		Pending: drainEntries(60)}); err != nil {
		t.Fatal(err)
	}
	// GC lags one checkpoint: segments below pos1's are gone, those
	// from it to pos2's retained for the older checkpoint's replay.
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) == 0 || idxs[0] != pos1.Segment {
		t.Errorf("segments %v, want oldest retained = %d", idxs, pos1.Segment)
	}
	l.Close()

	l2, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatalf("recovery after GC: %v", err)
	}
	defer l2.Close()
	if st.PendingRequests != 60 {
		t.Errorf("recovered %d pending, want 60", st.PendingRequests)
	}
}

// TestReplayBound drives the log the way the server does — a slot's
// ingests, its advance, the next slot's ingests arriving while the
// round runs, the plan, a checkpoint every few slots at the position
// read at capture — over segments small enough to rotate many times a
// slot, and boots a copy at every point a crash could leave the most
// behind, once as it is and once with the newest checkpoint damaged:
// no boot may scan more than ReplayBound records, each must recover
// what reading the whole log does, and the worst must reach the
// bound's fallback term.
func TestReplayBound(t *testing.T) {
	const (
		every       = 3
		slotIngests = 40
		segBytes    = 256
		slots       = 4*every + 2
	)
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := must(t)
	feed := func(slot int) []Entry {
		es := make([]Entry, slotIngests)
		for i := range es {
			m(l.AppendIngest(slot, 0, 0, slot%7, i, 1))
			es[i] = Entry{Hotspot: slot % 7, Video: i, Count: 1}
		}
		return es
	}
	bound := ReplayBound(every, slotIngests)
	worst := 0
	scratch := t.TempDir()
	boot := func(ctx string) {
		t.Helper()
		if err := l.Sync(l.LastLSN()); err != nil { // the buffered tail reaches the files
			t.Fatal(err)
		}
		for _, damaged := range []bool{false, true} {
			name := ctx
			if damaged {
				name += ", newest checkpoint damaged"
			}
			cp := filepath.Join(scratch, ctx+"-"+strconv.FormatBool(damaged))
			if err := os.MkdirAll(cp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, dir, cp)
			if seq := l.CheckpointSeq(); damaged && seq > 0 {
				if err := os.WriteFile(filepath.Join(cp, checkpointName(seq)), []byte("damaged"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st := requireOpenMatchesReference(t, cp, name)
			if st.Records > bound {
				t.Fatalf("%s: boot scanned %d records, ReplayBound(%d, %d) = %d",
					name, st.Records, every, slotIngests, bound)
			}
			worst = max(worst, st.Records)
		}
	}
	feed(0)
	for slot := 0; slot < slots; slot++ {
		m(l.AppendAdvance(slot))
		arrived := feed(slot + 1)
		c, d := testPlanBytes(t, int64(slot+1))
		m(l.AppendPlan(slot, int64(slot+1), d, c))
		boot("planned-" + itoa(slot))
		if (slot+1)%every != 0 {
			continue
		}
		if err := l.WriteCheckpoint(&Checkpoint{
			Slot:    slot + 1,
			Epoch:   int64(slot + 1),
			Plan:    &PlanState{Slot: slot, Epoch: int64(slot + 1), Digest: d, Canonical: c},
			Pos:     l.Position(),
			Pending: arrived,
		}); err != nil {
			t.Fatal(err)
		}
		boot("checkpointed-" + itoa(slot))
	}
	t.Logf("worst boot scanned %d records of a bound of %d", worst, bound)
	if floor := 2 * every * (slotIngests + 2); worst < floor {
		t.Errorf("worst boot scanned %d records, expected at least %d: the test no longer reaches the case the bound is for", worst, floor)
	}
}

// drainEntries mirrors the test's ingest pattern as merged entries.
func drainEntries(n int) []Entry {
	m := make(map[entryKey]int64)
	for i := 0; i < n; i++ {
		m[entryKey{i % 7, i % 11}]++
	}
	return sortedEntries(m)
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	lsn := must(t)(l.AppendIngest(0, 0, 0, 0, 0, 1))
	if err := l.Sync(lsn); err != nil { // no-op under PolicyNone
		t.Fatal(err)
	}
	l.Crash()
	l2, st, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	// The record sat in the user-space buffer; the simulated crash
	// dropped it. Nothing recovered, nothing corrupted.
	if st.Records != 0 || st.PendingRequests != 0 {
		t.Errorf("recovered %d records / %d pending after unflushed crash, want none", st.Records, st.PendingRequests)
	}
}

func TestIntervalPolicyFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyInterval, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lsn := must(t)(l.AppendIngest(0, 0, 0, 3, 4, 2))
	if err := l.Sync(lsn); err != nil { // returns immediately
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never made the record durable")
		}
		time.Sleep(5 * time.Millisecond)
	}
	l.Crash() // buffered writer already flushed by the ticker
	l2, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	if st.PendingRequests != 2 {
		t.Errorf("recovered %d pending requests, want 2 (interval flush)", st.PendingRequests)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.AppendIngest(0, g, 0, g, i, 1)
				if err == nil {
					err = l.Sync(lsn)
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	l.Crash() // synced records must all survive a crash

	l2, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	if st.PendingRequests != goroutines*perG {
		t.Errorf("recovered %d pending requests, want %d", st.PendingRequests, goroutines*perG)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyAlways, true},
		{"always", PolicyAlways, true},
		{"interval", PolicyInterval, true},
		{"none", PolicyNone, true},
		{"sometimes", 0, false},
		{"ALWAYS", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if PolicyInterval.String() != "interval" {
		t.Errorf("Policy.String: %q", PolicyInterval.String())
	}
}

func TestMetricsCounters(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{Policy: PolicyAlways, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	lsn := must(t)(l.AppendIngest(0, 0, 0, 0, 0, 1))
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(&Checkpoint{Slot: 0, Pos: l.Position(),
		Pending: []Entry{{Hotspot: 0, Video: 0, Count: 1}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := reg.Counter("wal.appends").Value(); got != 1 {
		t.Errorf("wal.appends = %d, want 1", got)
	}
	if got := reg.Counter("wal.fsyncs").Value(); got < 1 {
		t.Errorf("wal.fsyncs = %d, want >= 1", got)
	}
	if got := reg.Counter("wal.bytes").Value(); got <= 0 {
		t.Errorf("wal.bytes = %d, want > 0", got)
	}
	if got := reg.Counter("wal.checkpoints").Value(); got != 1 {
		t.Errorf("wal.checkpoints = %d, want 1", got)
	}

	reg2 := obs.NewRegistry()
	l2, st, err := Open(dir, Options{Policy: PolicyAlways, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := reg2.Counter("wal.recovered_records").Value(); got != int64(st.Records) {
		t.Errorf("wal.recovered_records = %d, state says %d", got, st.Records)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.AppendAdvance(0); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
