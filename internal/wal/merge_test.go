package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// oracleMerge is mergeEntries by map and comparison sort.
func oracleMerge(es []Entry) []Entry {
	m := make(map[entryKey]int64)
	for _, e := range es {
		m[entryKey{e.Hotspot, e.Video}] += e.Count
	}
	return sortedEntries(m)
}

// requireMergeMatchesOracle holds mergeEntries to oracleMerge on es,
// leaving es itself untouched.
func requireMergeMatchesOracle(t *testing.T, es []Entry, ctx string) {
	t.Helper()
	want := oracleMerge(es)
	got, _ := mergeEntries(slices.Clone(es), nil)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: mergeEntries = %+v, want %+v", ctx, got, want)
	}
}

// TestMergeEntriesMatchesOracle holds the counting merge to a map and
// a comparison sort, on its own and inside the fold: keys split
// across tags and checkpoint demand overlapping the log's meet in one
// destination, and ids wide enough to take two, five and six byte
// passes.
func TestMergeEntriesMatchesOracle(t *testing.T) {
	wide := func(base int) []Entry {
		return []Entry{
			{Hotspot: base + 3, Video: 1, Count: 1},
			{Hotspot: 0, Video: base + 7, Count: 2},
			{Hotspot: base + 3, Video: 1, Count: 4},
			{Hotspot: base, Video: base, Count: 1},
			{Hotspot: 0, Video: 0, Count: 3},
			{Hotspot: base + 3, Video: 0, Count: 5},
			{Hotspot: 1, Video: base + 7, Count: 6},
		}
	}
	for _, tc := range []struct {
		name string
		es   []Entry
	}{
		{"empty", nil},
		{"single key", []Entry{{Hotspot: 4, Video: 9, Count: 2}}},
		{"duplicate keys", []Entry{
			{Hotspot: 2, Video: 5, Count: 1}, {Hotspot: 1, Video: 5, Count: 1},
			{Hotspot: 2, Video: 5, Count: 3}, {Hotspot: 2, Video: 4, Count: 1},
			{Hotspot: 1, Video: 5, Count: 2}, {Hotspot: 2, Video: 5, Count: 1},
		}},
		{"one key repeated: no counting pass", []Entry{{Hotspot: 7, Video: 7, Count: 1}, {Hotspot: 7, Video: 7, Count: 1}}},
		{"ids from 2^16", wide(1 << 16)},
		{"ids from 2^32", wide(1 << 32)},
		{"ids up to maxEntityValue", wide(maxEntityValue - 7)},
	} {
		requireMergeMatchesOracle(t, tc.es, tc.name)
	}

	ingest := func(slot, instance int, seq uint64, h, v int, n int64) record {
		return record{kind: recIngest, slot: slot, instance: instance, seq: seq, hotspot: h, video: v, count: n}
	}
	t.Run("one key split across tags of one destination", func(t *testing.T) {
		// Slots 1 and 2 are past their boundary and queue apart; slots
		// 3 and 4 are both pending and merge.
		recs := []record{
			ingest(1, 0, 1, 5, 5, 1), ingest(2, 0, 2, 5, 5, 2), ingest(3, 0, 3, 5, 5, 3),
			ingest(4, 1, 1, 5, 5, 4), ingest(3, 1, 2, 1<<33, 5, 1), ingest(4, 0, 4, 1<<33, 5, 1),
			{kind: recAdvance, slot: 2},
		}
		st := requireFoldMatchesReference(t, nil, recs, "split tags")
		if want := []Entry{{Hotspot: 5, Video: 5, Count: 7}, {Hotspot: 1 << 33, Video: 5, Count: 2}}; !reflect.DeepEqual(st.Pending, want) {
			t.Errorf("pending %+v, want %+v", st.Pending, want)
		}
		if len(st.Queue) != 2 {
			t.Errorf("queue %+v, want slots 1 and 2 apart", st.Queue)
		}
	})
	t.Run("checkpoint demand overlapping the log's", func(t *testing.T) {
		ckpt := &Checkpoint{
			Slot:    3,
			Cursors: map[int]uint64{0: 2},
			Pending: []Entry{{Hotspot: 1, Video: 2, Count: 2}, {Hotspot: 4, Video: 4, Count: 1}},
			Queue: []QueuedSlot{
				{Slot: 1, Requests: 2, Entries: []Entry{{Hotspot: 1, Video: 1, Count: 2}}},
				{Slot: 2, Requests: 3, Entries: []Entry{{Hotspot: 9, Video: 0, Count: 3}}},
			},
		}
		recs := []record{
			ingest(3, 0, 3, 1, 2, 5), ingest(3, 0, 4, 4, 4, 1), ingest(2, 0, 5, 9, 0, 1),
			ingest(1, 1, 1, 1, 1, 1), ingest(4, 1, 2, 1, 2, 1),
		}
		for n := range len(recs) + 1 {
			requireFoldMatchesReference(t, ckpt, recs[:n], "overlap, prefix "+itoa(n))
		}
		// Slot 3 closes: the checkpoint's pending demand and the log's
		// queue under it together.
		recs = append(recs, record{kind: recAdvance, slot: 3})
		st := requireFoldMatchesReference(t, ckpt, recs, "overlap, slot 3 closed")
		want := []QueuedSlot{
			{Slot: 1, Requests: 3, Entries: []Entry{{Hotspot: 1, Video: 1, Count: 3}}},
			{Slot: 2, Requests: 4, Entries: []Entry{{Hotspot: 9, Video: 0, Count: 4}}},
			{Slot: 3, Requests: 9, Entries: []Entry{{Hotspot: 1, Video: 2, Count: 7}, {Hotspot: 4, Video: 4, Count: 2}}},
		}
		if !reflect.DeepEqual(st.Queue, want) {
			t.Errorf("queue %+v, want %+v", st.Queue, want)
		}
	})
}

// FuzzMergeEntries holds mergeEntries to the oracle on arbitrary entry
// lists: each entry is three uvarints (hotspot, video, count) of the
// input, the ids bounded by maxEntityValue.
func FuzzMergeEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 1, 2, 4, 0, 0, 1})
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{9}, maxEntityValue), 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		var es []Entry
		for {
			var f [3]uint64
			for i := range f {
				v, n := binary.Uvarint(data)
				if n <= 0 {
					requireMergeMatchesOracle(t, es, "fuzzed entries")
					return
				}
				f[i], data = v, data[n:]
			}
			es = append(es, Entry{Hotspot: int(f[0] % (maxEntityValue + 1)), Video: int(f[1] % (maxEntityValue + 1)), Count: int64(f[2]%maxCountValue) + 1})
		}
	})
}

// TestFoldMatchesReferenceAtBenchShape holds the fold to the oracle on
// the log BenchmarkRecoveryReplay times.
func TestFoldMatchesReferenceAtBenchShape(t *testing.T) {
	slotIngests := 50000
	if testing.Short() {
		slotIngests = 5000
	}
	sh := newRecoveryShape(t, slotIngests)
	st := requireFoldMatchesReference(t, sh.ckpt, sh.records(), "bench shape")
	if st.Skipped != sh.skipped || st.PendingRequests != int64(sh.pending) || len(st.Queue) != 0 {
		t.Errorf("skipped %d, %d pending requests, queue %d slots; want %d, %d, 0",
			st.Skipped, st.PendingRequests, len(st.Queue), sh.skipped, sh.pending)
	}
}

// TestOpenAllocationsIndependentOfLogLength pins "no allocation per
// record": Open on the bench shape with eight times the ingests may
// allocate only a few more times — three more doublings of the open
// slot's run, plus whatever sync.Pool caches a collection during the
// longer scan emptied (2–10 more in all, measured; a per-record or
// per-key allocation makes it 180).
func TestOpenAllocationsIndependentOfLogLength(t *testing.T) {
	const n, budget = 2000, 16
	allocs := func(slotIngests int) float64 {
		dir := t.TempDir()
		newRecoveryShape(t, slotIngests).write(t, dir)
		return testing.AllocsPerRun(3, func() {
			l, _, err := Open(dir, Options{Policy: PolicyNone})
			if err != nil {
				t.Fatal(err)
			}
			l.Crash()
		})
	}
	small, large := allocs(n), allocs(8*n)
	if large-small > budget {
		t.Errorf("Open allocated %.0f times on %d ingests a slot and %.0f on %d: %.0f more, budget %d",
			small, n, large, 8*n, large-small, budget)
	}
}

// TestScanThroughSmallWindows reads a segment through windows shorter
// than its frames — down to one byte, with plan frames many windows
// long — truncated at every offset and with a byte flipped at every
// offset: the records and the valid prefix must be those of one scan
// over the whole bytes. One scanner per window size reads every file,
// as Open reuses one from segment to segment.
func TestScanThroughSmallWindows(t *testing.T) {
	src := t.TempDir()
	writeScriptedLog(t, src, DefaultSegmentBytes)
	segs := readSegments(t, src)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	seg := segs[0]
	path := filepath.Join(t.TempDir(), "seg")
	for _, window := range []int{1, 2, 7, 8, 9, 40, readWindow} {
		sc := segmentScanner{window: window}
		check := func(data []byte, ctx string) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []record
			validLen, size, err := sc.scan(path, func(r *record) {
				rec := *r
				rec.canonical = bytes.Clone(r.canonical)
				got = append(got, rec)
			})
			want, wantLen := scanRecords(data)
			if err != nil || validLen != int64(wantLen) || size != int64(len(data)) || !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, %s: %d records, valid %d of %d (err %v); want %d records, valid %d of %d",
					window, ctx, len(got), validLen, size, err, len(want), wantLen, len(data))
			}
		}
		for off := 0; off <= len(seg); off++ {
			check(seg[:off], "truncated at "+itoa(off))
		}
		for off := range seg {
			flipped := slices.Clone(seg)
			flipped[off] ^= 0x41
			check(flipped, "flipped at "+itoa(off))
		}
	}
}
