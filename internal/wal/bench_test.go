package wal

import (
	"math/rand"
	"runtime"
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

// BenchmarkRecoveryReplay times Open on a log shaped like the serving
// benchmark's restart drill (bench/drill.go): two scheduled slots, a
// checkpoint that has absorbed them, one more scheduled slot and half
// a slot of pending demand, nothing collected yet — so the scan meets
// two slots of ingests at or below the checkpoint's cursors and folds
// one and a half. Two instances alternate, hotspots are uniform over a
// city-sized fleet and videos Zipf, one plan record per slot. The plan
// is a toy, so ns/record is the scan and the fold alone: a boot costs
// about that times wal.recovered_records plus core.verify_ms per plan
// record and checkpoint (wal.recover_plan_verify_us).
func BenchmarkRecoveryReplay(b *testing.B) {
	const (
		slotIngests = 50000
		hotspots    = 1240
		videos      = 15000
	)
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 8, videos-1)
	seqs := make([]uint64, 2)
	records := 0
	feed := func(slot, n int) {
		for i := 0; i < n; i++ {
			in := i % len(seqs)
			seqs[in]++
			if _, err := l.AppendIngest(slot, in, seqs[in], rng.Intn(hotspots), int(zipf.Uint64()), 1); err != nil {
				b.Fatal(err)
			}
		}
		records += n
	}
	var plan *PlanState
	schedule := func(slot int) {
		canonical, digest := testPlanBytes(b, int64(slot+1))
		if _, err := l.AppendAdvance(slot); err != nil {
			b.Fatal(err)
		}
		if _, err := l.AppendPlan(slot, int64(slot+1), digest, canonical); err != nil {
			b.Fatal(err)
		}
		plan = &PlanState{Slot: slot, Epoch: int64(slot + 1), Digest: digest, Canonical: canonical}
		records += 2
	}
	for slot := 0; slot < 2; slot++ {
		feed(slot, slotIngests)
		schedule(slot)
	}
	skipped := 2 * slotIngests
	cp := &Checkpoint{Slot: 2, Epoch: 2, Plan: plan, Cursors: map[int]uint64{0: seqs[0], 1: seqs[1]}}
	if err := l.WriteCheckpoint(cp, l.CurrentSegment()); err != nil {
		b.Fatal(err)
	}
	feed(2, slotIngests)
	schedule(2)
	feed(3, slotIngests/2)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, st, err := Open(dir, Options{Policy: PolicyNone})
		if err != nil {
			b.Fatal(err)
		}
		if st.Records != records || st.Skipped != skipped || st.PendingRequests != slotIngests/2 || st.Epoch != 3 {
			b.Fatalf("recovered %d records (%d skipped), %d pending, epoch %d; want %d (%d), %d, 3",
				st.Records, st.Skipped, st.PendingRequests, st.Epoch, records, skipped, slotIngests/2)
		}
		l2.Crash()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perOp := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perOp, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perOp, "B/record")
}
