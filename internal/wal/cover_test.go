package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPolicyStrings locks in the policy name round-trip and the
// parser's rejection of unknown names.
func TestPolicyStrings(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{PolicyAlways, "always"},
		{PolicyInterval, "interval"},
		{PolicyNone, "none"},
		{Policy(42), "policy(42)"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(tc.p), got, tc.want)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyAlways {
		t.Errorf(`ParsePolicy("") = %v, %v`, p, err)
	}
	for _, name := range []string{"always", "interval", "none"} {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("ParsePolicy(sometimes) err = %v", err)
	}
}

// uv appends uvarints to a payload under construction.
func uv(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeRecordErrors walks every rejection branch of the strict
// record decoder: truncations, out-of-range fields, zero counts,
// unknown kinds, and trailing garbage all must fail (a CRC-valid
// frame that fails decoding is treated as corruption by replay).
func TestDecodeRecordErrors(t *testing.T) {
	digest := make([]byte, 8)
	validPlan := uv([]byte{recPlan}, 7, 3)
	validPlan = append(validPlan, digest...)
	validPlan = uv(validPlan, 0)
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "empty record payload"},
		{"ingest truncated slot", []byte{recIngest}, "bad slot"},
		{"ingest slot out of range", uv([]byte{recIngest}, maxSlotValue+1), "bad slot"},
		{"ingest truncated instance", uv([]byte{recIngest}, 1), "bad instance"},
		{"ingest truncated hotspot", uv([]byte{recIngest}, 1, 0), "bad hotspot"},
		{"ingest truncated video", uv([]byte{recIngest}, 1, 0, 4), "bad video"},
		{"ingest truncated count", uv([]byte{recIngest}, 1, 0, 4, 2), "bad count"},
		{"ingest zero count", uv([]byte{recIngest}, 1, 0, 4, 2, 0), "bad count"},
		{"ingest of the retired format", uv([]byte{recRetired}, 1, 0, 9, 4, 2, 1), "retired format"},
		{"advance truncated slot", []byte{recAdvance}, "bad slot"},
		{"rounderr truncated slot", []byte{recRoundErr}, "bad slot"},
		{"plan truncated slot", []byte{recPlan}, "bad slot"},
		{"plan truncated epoch", uv([]byte{recPlan}, 7), "bad epoch"},
		{"plan truncated digest", uv([]byte{recPlan}, 7, 3), "truncated digest"},
		{"plan canonical overruns", append(uv(append(uv([]byte{recPlan}, 7, 3), digest...), 200), 1, 2), "bad canonical length"},
		{"unknown kind", []byte{99, 1}, "unknown record kind"},
		{"trailing bytes", append(append([]byte(nil), validPlan...), 0xFF), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r record
			err := r.decode(tc.payload)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode(% x) err = %v, want %q", tc.payload, err, tc.want)
			}
		})
	}
	var r record
	if err := r.decode(validPlan); err != nil {
		t.Fatalf("valid plan payload rejected: %v", err)
	}
}

// TestDecodeCheckpointErrors corrupts a well-formed checkpoint body
// byte by byte: every strict prefix must fail to decode (never panic,
// never decode to a shorter-but-valid state), and targeted edits hit
// the version / plan-flag / implausible-count branches.
func TestDecodeCheckpointErrors(t *testing.T) {
	canon, dig := testPlanBytes(t, 5)
	cp := &Checkpoint{
		Seq:     3,
		Slot:    9,
		Epoch:   5,
		Plan:    &PlanState{Slot: 8, Epoch: 5, Digest: dig, Canonical: canon},
		Pos:     Position{Segment: 4, Offset: 300},
		Pending: []Entry{{Hotspot: 1, Video: 2, Count: 3}},
		Queue: []QueuedSlot{
			{Slot: 9, Requests: 4, Entries: []Entry{{Hotspot: 0, Video: 1, Count: 4}}},
		},
	}
	body := cp.encode(nil)
	if _, err := decodeCheckpoint(body); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	for k := 0; k < len(body); k++ {
		if _, err := decodeCheckpoint(body[:k]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", k, len(body))
		}
	}

	bad := append([]byte(nil), body...)
	bad[0] = 9 // version
	if _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("bad version err = %v", err)
	}

	// The plan-present flag sits right after version, seq, slot, epoch.
	flagOff := 0
	for i := 0; i < 4; i++ {
		_, n := binary.Uvarint(body[flagOff:])
		flagOff += n
	}
	if body[flagOff] != 1 {
		t.Fatalf("expected plan flag at offset %d, found %d", flagOff, body[flagOff])
	}
	bad = append([]byte(nil), body...)
	bad[flagOff] = 2
	if _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "bad plan flag") {
		t.Fatalf("bad plan flag err = %v", err)
	}

	// An entry count far beyond the remaining bytes is corruption, not
	// an allocation request.
	if _, _, err := decodeEntries(uv(nil, 1<<40)); err == nil || !strings.Contains(err.Error(), "exceeds body") {
		t.Fatalf("implausible entry count err = %v", err)
	}

	// Trailing garbage after a complete checkpoint is rejected.
	if _, err := decodeCheckpoint(append(append([]byte(nil), body...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing bytes") {
		t.Fatal("trailing checkpoint bytes accepted")
	}
}

// TestUnmarshalCheckpointErrors covers the file-level checks in front
// of the strict decoder: magic, framed length, CRC.
func TestUnmarshalCheckpointErrors(t *testing.T) {
	data := marshalCheckpoint(&Checkpoint{Slot: 1})
	if _, err := unmarshalCheckpoint(data); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if _, err := unmarshalCheckpoint(data[:4]); err == nil || !strings.Contains(err.Error(), "short file") {
		t.Fatalf("short file err = %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := unmarshalCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic err = %v", err)
	}
	if _, err := unmarshalCheckpoint(data[:len(data)-1]); err == nil || !strings.Contains(err.Error(), "bad body length") {
		t.Fatalf("bad body length err = %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := unmarshalCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("CRC mismatch err = %v", err)
	}
}

// TestLogAccessors exercises the introspection surface: LSN and
// segment accessors, checkpoint sequencing, sync-past-end, and the
// closed-log append rejection.
func TestLogAccessors(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", st.Records)
	}
	if got := l.LastLSN(); got != 0 {
		t.Fatalf("LastLSN on empty log = %d", got)
	}
	if got := l.Policy(); got != PolicyAlways {
		t.Fatalf("Policy() = %v", got)
	}
	if got := l.Position(); got.Segment != 1 || got.Offset != 0 {
		t.Fatalf("Position() = %+v", got)
	}
	if got := l.CheckpointSeq(); got != 0 {
		t.Fatalf("CheckpointSeq() = %d", got)
	}

	lsn, err := l.AppendIngest(0, 0, 0, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != lsn {
		t.Fatalf("LastLSN = %d, want %d", got, lsn)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN = %d, want %d", got, lsn)
	}
	// Syncing an LSN that was never appended is a caller bug and must
	// be reported, not silently "durable".
	if err := l.Sync(lsn + 5); err == nil || !strings.Contains(err.Error(), "sync past end of log") {
		t.Fatalf("Sync past end err = %v", err)
	}

	if err := l.WriteCheckpoint(&Checkpoint{Slot: 1, Pos: l.Position()}); err != nil {
		t.Fatal(err)
	}
	if got := l.CheckpointSeq(); got != 1 {
		t.Fatalf("CheckpointSeq after write = %d", got)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.AppendAdvance(0); err == nil || !strings.Contains(err.Error(), "log closed") {
		t.Fatalf("append on closed log err = %v", err)
	}
	if err := l.WriteCheckpoint(&Checkpoint{}); err == nil || !strings.Contains(err.Error(), "log closed") {
		t.Fatalf("checkpoint on closed log err = %v", err)
	}
	l.Crash() // no-op after Close, must not panic
}

// TestSyncOnClosedLog: a PolicyAlways Sync that loses the race with
// Close reports the closed log instead of hanging.
func TestSyncOnClosedLog(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendAdvance(0)
	if err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if err := l.Sync(lsn); err == nil || !strings.Contains(err.Error(), "log closed") {
		t.Fatalf("Sync after crash err = %v", err)
	}
	// The failure is sticky.
	if err := l.Sync(lsn); err == nil {
		t.Fatal("second Sync after crash succeeded")
	}
}

// TestWriteFileAtomicError: the temp-file creation failure is
// reported (no directory, nothing to rename).
func TestWriteFileAtomicError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.ckpt")
	if err := writeFileAtomic(missing, []byte("x")); err == nil {
		t.Fatal("writeFileAtomic into missing dir succeeded")
	}
}

// TestLoadCheckpointsSkipsDamaged: recovery must fall back to the
// newest checkpoint that passes CRC + strict decode + plan
// verification, while new checkpoint sequence numbers never collide
// with the damaged newer file. A checkpoint of another body version is
// not damage: Open refuses it.
func TestLoadCheckpointsSkipsDamaged(t *testing.T) {
	dir := t.TempDir()
	good := marshalCheckpoint(&Checkpoint{Slot: 4, Pos: Position{Segment: 1}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName(2)), good, 0o644); err != nil {
		t.Fatal(err)
	}
	// withBodyByte is good with one byte of its framed body set, CRC
	// recomputed: CRC-valid, and damaged or not only at the decode layer.
	withBodyByte := func(off int, v byte) []byte {
		out := append([]byte(nil), good...)
		out[len(ckptMagic)+frameHeaderBytes+off] = v
		body := out[len(ckptMagic)+frameHeaderBytes:]
		binary.LittleEndian.PutUint32(out[len(ckptMagic)+4:], crc32.Checksum(body, crcTable))
		return out
	}
	// Newest file is CRC-valid garbage at the decode layer: its plan
	// flag (after the version, seq, slot and epoch bytes) reads 9.
	if err := os.WriteFile(filepath.Join(dir, checkpointName(5)), withBodyByte(4, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	// And one that is pure noise (fails CRC outright).
	if err := os.WriteFile(filepath.Join(dir, checkpointName(4)), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	ckpt, maxSeq, _, err := loadCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || ckpt.Slot != 4 {
		t.Fatalf("loaded checkpoint = %+v, want the seq-2 fallback", ckpt)
	}
	if maxSeq != 5 {
		t.Fatalf("maxSeq = %d, want 5 (damaged file still reserves its sequence)", maxSeq)
	}

	// A full Open over the same directory agrees.
	l, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st.Slot != 4 {
		t.Fatalf("recovered slot = %d, want 4", st.Slot)
	}
	if got := l.CheckpointSeq(); got != 5 {
		t.Fatalf("CheckpointSeq = %d, want 5", got)
	}
	l.Close()

	// A version-2 body (no log position) or version-3 body (a
	// watermark besides the position) is refused, not skipped for the
	// older file.
	for _, v := range []byte{2, 3} {
		if err := os.WriteFile(filepath.Join(dir, checkpointName(6)), withBodyByte(0, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "unsupported version "+itoa(int(v))) {
			t.Fatalf("Open on a version-%d checkpoint: %v, want it refused", v, err)
		}
	}
}
