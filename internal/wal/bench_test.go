package wal

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func benchAppend(b *testing.B, policy Policy) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := l.AppendIngest(i>>10, 0, uint64(i+1), i%64, i%512, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendAlways(b *testing.B)   { benchAppend(b, PolicyAlways) }
func BenchmarkWALAppendInterval(b *testing.B) { benchAppend(b, PolicyInterval) }
func BenchmarkWALAppendNone(b *testing.B)     { benchAppend(b, PolicyNone) }

// recoveryShape is the log shape of the serving benchmark's restart
// drill (bench/drill.go) at slotIngests ingests per slot: two
// scheduled slots, a checkpoint that has absorbed them, one more
// scheduled slot and half a slot of pending demand, nothing collected
// yet — so a boot that reads the whole log meets two slots of ingests
// at or below the checkpoint's watermark, and one that starts at the
// checkpoint's position reads only the slot and a half after it. Two frontends
// alternate, numbering their ingests from one sequence, hotspots are uniform over a city-sized fleet and videos
// Zipf, one plan record per slot. The plan is a toy.
type recoveryShape struct {
	// before and after are the log on either side of the checkpoint.
	before, after []record
	ckpt          *Checkpoint
	// skipped counts the ingests at or below the checkpoint's watermark
	// (all of them before it), pending the requests of the unfinished
	// slot.
	skipped, pending int
}

func newRecoveryShape(tb testing.TB, slotIngests int) *recoveryShape {
	const (
		hotspots = 1240
		videos   = 15000
	)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 8, videos-1)
	var seq uint64
	var log []record
	feed := func(slot, n int) {
		for i := 0; i < n; i++ {
			seq++
			log = append(log, record{kind: recIngest, slot: slot, instance: i % 2, seq: seq,
				hotspot: rng.Intn(hotspots), video: int(zipf.Uint64()), count: 1})
		}
	}
	var plan *PlanState
	schedule := func(slot int) {
		canonical, digest := testPlanBytes(tb, int64(slot+1))
		log = append(log, record{kind: recAdvance, slot: slot},
			record{kind: recPlan, slot: slot, epoch: int64(slot + 1), digest: digest, canonical: canonical})
		plan = &PlanState{Slot: slot, Epoch: int64(slot + 1), Digest: digest, Canonical: canonical}
	}
	for slot := 0; slot < 2; slot++ {
		feed(slot, slotIngests)
		schedule(slot)
	}
	sh := &recoveryShape{before: log, skipped: 2 * slotIngests, pending: slotIngests / 2}
	sh.ckpt = &Checkpoint{Slot: 2, Epoch: 2, Plan: plan, Watermark: seq}
	log = nil
	feed(2, slotIngests)
	schedule(2)
	feed(3, slotIngests/2)
	sh.after = log
	return sh
}

// records is every record of the shape, in log order.
func (sh *recoveryShape) records() []record {
	return append(slices.Clip(sh.before), sh.after...)
}

// write logs the shape into dir as a server would: the records before
// the checkpoint, the checkpoint at the position they end, the rest.
func (sh *recoveryShape) write(tb testing.TB, dir string) {
	l, _, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		tb.Fatal(err)
	}
	appendAll := func(recs []record) {
		for i := range recs {
			if _, err := l.append(&recs[i]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	appendAll(sh.before)
	cp := *sh.ckpt
	cp.Pos = l.Position()
	if err := l.WriteCheckpoint(&cp); err != nil {
		tb.Fatal(err)
	}
	appendAll(sh.after)
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecoveryReplay times Open on the restart drill's log shape
// (recoveryShape) at 50,000 ingests per slot. Open starts at the
// checkpoint's position, so ns/record counts only the records after
// it — the scan and the fold alone: a boot costs about that times
// wal.recovered_records plus core.verify_ms per plan record and
// checkpoint (wal.recover_plan_verify_us).
func BenchmarkRecoveryReplay(b *testing.B) {
	const slotIngests = 50000
	dir := b.TempDir()
	sh := newRecoveryShape(b, slotIngests)
	sh.write(b, dir)
	records := len(sh.after)

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, st, err := Open(dir, Options{Policy: PolicyNone})
		if err != nil {
			b.Fatal(err)
		}
		if st.Records != records || st.Skipped != 0 || st.PendingRequests != int64(sh.pending) || st.Epoch != 3 {
			b.Fatalf("recovered %d records (%d skipped), %d pending, epoch %d; want %d (0), %d, 3",
				st.Records, st.Skipped, st.PendingRequests, st.Epoch, records, sh.pending)
		}
		l2.Crash()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perOp := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perOp, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perOp, "B/record")
}
