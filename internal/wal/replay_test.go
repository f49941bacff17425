package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestFoldMatchesReferenceAtBenchShape holds the fold to the oracle on
// the log BenchmarkRecoveryReplay times, the records after the
// checkpoint folded onto it to all of them folded from nothing, and
// Open, which reads only the records after the checkpoint's position,
// to reading all of them.
func TestFoldMatchesReferenceAtBenchShape(t *testing.T) {
	slotIngests := 50000
	if testing.Short() {
		slotIngests = 5000
	}
	sh := newRecoveryShape(t, slotIngests)
	st := requireFoldMatchesReference(t, sh.ckpt, sh.after, "bench shape")
	if st.PendingRequests != int64(sh.pending) || len(st.Queue) != 0 {
		t.Errorf("%d pending requests, queue %d slots; want %d, 0", st.PendingRequests, len(st.Queue), sh.pending)
	}
	if diff := sameRecovery(st, foldState(nil, sh.records())); diff != "" {
		t.Errorf("the records after the checkpoint fold onto it to another state than the whole log:%s", diff)
	}
	dir := t.TempDir()
	sh.write(t, dir)
	st = requireOpenMatchesReference(t, dir, "bench shape on disk")
	if st.Records != len(sh.after) || st.PendingRequests != int64(sh.pending) {
		t.Errorf("Open scanned %d records, %d pending; want %d, %d",
			st.Records, st.PendingRequests, len(sh.after), sh.pending)
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
// long — truncated at every offset, with a byte flipped at every
// offset, and whole from every frame boundary on: the records and the
// valid prefix must be those of one scan over the bytes from the
// start offset. One scanner per window size reads every file, as Open
// reuses one from segment to segment.
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
		check := func(data []byte, from int, ctx string) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []record
			validLen, size, err := sc.scan(path, int64(from), func(r *record) {
				rec := *r
				rec.canonical = bytes.Clone(r.canonical)
				got = append(got, rec)
			})
			want, wantLen := scanRecords(data[from:])
			wantLen += from
			if err != nil || validLen != int64(wantLen) || size != int64(len(data)) || !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, %s: %d records, valid %d of %d (err %v); want %d records, valid %d of %d",
					window, ctx, len(got), validLen, size, err, len(want), wantLen, len(data))
			}
		}
		for off := 0; off <= len(seg); off++ {
			check(seg[:off], 0, "truncated at "+itoa(off))
		}
		for off := range seg {
			flipped := slices.Clone(seg)
			flipped[off] ^= 0x41
			check(flipped, 0, "flipped at "+itoa(off))
		}
		for _, from := range frameEnds(seg) {
			check(seg, from, "from "+itoa(from))
		}
	}
}
