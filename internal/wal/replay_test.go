package wal

import (
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
// allocate only a few more times — a run grows once whatever its
// length, and the scan's blocks are as many either way, so what
// differs is whatever sync.Pool caches a collection during the longer
// scan emptied (a per-record or per-key allocation makes it 180).
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
// long — into blocks down to one record, truncated at every offset,
// with a byte flipped at every offset, and whole from every frame
// boundary on: the records the fold receives, in order, and the valid
// prefix must be those of one scan over the bytes from the start
// offset, every plan record verified. One scanner per window and block
// size reads every file, as Open reuses one from segment to segment.
func TestScanThroughSmallWindows(t *testing.T) {
	src := t.TempDir()
	writeScriptedLog(t, src, DefaultSegmentBytes)
	segs := readSegments(t, src)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	seg := segs[0]
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	for _, blockLen := range []int{1, 3, blockRecords} {
		for _, window := range []int{1, 2, 7, 8, 9, 40, readWindow} {
			sc := segmentScanner{window: window, block: blockLen}
			check := func(data []byte, from int, ctx string) {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				var got []record
				end, err := sc.run(dir, []uint64{1}, int64(from), func(b *block) {
					if len(b.recs) > blockLen {
						t.Errorf("block of %d records, want at most %d", len(b.recs), blockLen)
					}
					for _, r := range b.recs {
						if r.kind == recPlan && r.plan == nil {
							t.Errorf("%s: a plan record reached the fold unverified", ctx)
						}
						r.plan = nil
						got = append(got, r)
					}
				})
				want, wantLen := scanRecords(data[from:])
				wantLen += from
				validLen := end.valid
				if end.seg == 1 {
					validLen = int64(len(data))
				}
				if err != nil || validLen != int64(wantLen) || end.seg == 0 && end.size != int64(len(data)) || !reflect.DeepEqual(got, want) {
					t.Fatalf("block %d, window %d, %s: %d records, valid %d of %d (err %v); want %d records, valid %d of %d",
						blockLen, window, ctx, len(got), validLen, len(data), err, len(want), wantLen, len(data))
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
}
