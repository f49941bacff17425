package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// ingestN posts n acknowledged ingests through frontend 0, numbering
// users from first.
func ingestN(t *testing.T, s *Server, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, i, i%5, i%4)
		if rr := do(t, s, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: %d %s", i, rr.Code, rr.Body)
		}
	}
}

// walHealth reads the wal block of frontend 0's /healthz.
func walHealth(t *testing.T, s *Server) (replay int, appended, durable uint64) {
	t.Helper()
	var hz struct {
		WAL struct {
			ReplayRecords *int   `json:"replay_records"`
			Appended      uint64 `json:"appended_lsn"`
			Durable       uint64 `json:"durable_lsn"`
		} `json:"wal"`
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/healthz", "").Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.WAL.ReplayRecords == nil {
		t.Fatal("/healthz wal block has no replay_records")
	}
	return *hz.WAL.ReplayRecords, hz.WAL.Appended, hz.WAL.Durable
}

// TestIntervalCheckpointCrashLosesNothing: under the interval policy an
// acknowledged ingest may sit in the log's buffer when a checkpoint
// captures it. The checkpoint's position lies past those bytes, so the
// checkpoint must make the log durable through it: a crash before the
// flusher runs must leave a log that reaches the position, and the
// reboot's appends must land after it, where the next boot reads them.
// Without that flush the reboot finds its segment short of the
// position, and the requests it acknowledged are lost or the boot
// refused.
func TestIntervalCheckpointCrashLosesNothing(t *testing.T) {
	const first, second = 5, 3
	cfg := Config{World: testWorld(4, 50, 50), WALDir: t.TempDir(), Fsync: "interval", FsyncInterval: time.Hour}
	s := newTestServer(t, cfg) // never started: the worker checkpoints nothing on its own
	ingestN(t, s, 0, first)
	s.writeCheckpoint()
	s.Kill() // before the flusher's first tick

	cfg.Registry = obs.NewRegistry()
	cfg.FsyncInterval = time.Millisecond
	s2 := newTestServer(t, cfg)
	if st := s2.WALState(); st.PendingRequests != first {
		t.Fatalf("reboot recovered %d pending requests, %d were acknowledged", st.PendingRequests, first)
	}
	ingestN(t, s2, first, second)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, appended, durable := walHealth(t, s2); durable == appended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the interval flusher never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	s2.Kill()

	cfg.Registry = obs.NewRegistry()
	s3 := newTestServer(t, cfg)
	defer s3.Kill()
	if st := s3.WALState(); st.PendingRequests != first+second || st.Records != second {
		t.Fatalf("second reboot recovered %d pending requests from %d records, want %d from the %d logged after the checkpoint",
			st.PendingRequests, st.Records, first+second, second)
	}
}

// TestHealthzReplayRecords: /healthz says what a crash would cost now —
// the records the next boot would scan. A boot's own recovered suffix
// counts until it writes a checkpoint; the count drops to 0 there and
// then counts each record logged after it.
func TestHealthzReplayRecords(t *testing.T) {
	cfg := Config{World: testWorld(4, 50, 50), WALDir: t.TempDir()}
	s := newTestServer(t, cfg)
	ingestN(t, s, 0, 4)
	if n, _, _ := walHealth(t, s); n != 4 {
		t.Fatalf("replay_records = %d after 4 ingests, want 4", n)
	}
	s.writeCheckpoint()
	if n, _, _ := walHealth(t, s); n != 0 {
		t.Fatalf("replay_records = %d right after a checkpoint, want 0", n)
	}
	ingestN(t, s, 4, 3)
	if n, _, _ := walHealth(t, s); n != 3 {
		t.Fatalf("replay_records = %d after 3 more ingests, want 3", n)
	}
	s.Kill()

	cfg.Registry = obs.NewRegistry()
	s2 := newTestServer(t, cfg)
	defer s2.Kill()
	ingestN(t, s2, 7, 2)
	if n, _, _ := walHealth(t, s2); n != s2.WALState().Records+2 || s2.WALState().Records != 3 {
		t.Fatalf("replay_records = %d after a boot that scanned %d records and 2 ingests, want 3 + 2",
			n, s2.WALState().Records)
	}
}

// TestConcurrentCutCountsEveryAckOnce is the guard over the capture:
// three frontends take ingests from several goroutines while the test
// captures checkpoints back to back, advancing a slot between some of
// them, and kills the tier with the last capture taken mid-traffic.
// The reboot must account for every acknowledged request exactly once
// — pending, queued, or in a plan published before the kill. Only the
// capture's one hold of s.mu and every frontend lock keeps the log
// position it records an exact cut; read outside that hold, requests
// appended between the demand copy and the position are lost, or
// counted twice. Three kill/reboot cycles, each checked.
func TestConcurrentCutCountsEveryAckOnce(t *testing.T) {
	const frontends, posters, cycles, captures = 3, 6, 8, 6
	world := testWorld(8, 20, 20)
	cfg := Config{World: world, Instances: frontends, WALDir: t.TempDir(), Fsync: "always",
		CheckpointEvery: 1 << 30, QueueBound: 1 << 20, PlanHistory: cycles * captures}
	var acked, planned int64
	for cycle := 0; ; cycle++ {
		cfg.Registry = obs.NewRegistry()
		s := newTestServer(t, cfg)
		if cycle > 0 {
			st := s.WALState()
			var queued int64
			for _, q := range st.Queue {
				queued += q.Requests
			}
			if got := st.PendingRequests + queued + planned; got != acked {
				t.Fatalf("reboot %d: %d pending + %d queued + %d planned = %d, want the %d acknowledged",
					cycle, st.PendingRequests, queued, planned, got, acked)
			}
			if st.CheckpointSeq == 0 || st.Records == 0 {
				t.Fatalf("reboot %d: checkpoint %d, %d records after it; want the last capture, taken mid-traffic",
					cycle, st.CheckpointSeq, st.Records)
			}
		}
		if cycle == cycles {
			s.Kill()
			return
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var sent atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < posters; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					body := fmt.Sprintf(`{"user":%d,"video":%d,"hotspot":%d}`, p, (p*31+i)%world.NumVideos, (p+i)%len(world.Hotspots))
					if rr := doAt(t, s, (p+i)%frontends, http.MethodPost, "/ingest", body); rr.Code != http.StatusAccepted {
						t.Errorf("ingest status %d %s", rr.Code, rr.Body)
						return
					}
					sent.Add(1)
				}
			}(p)
		}
		for k := 1; k <= captures; k++ {
			for sent.Load() < int64(k*posters) && !t.Failed() {
				runtime.Gosched()
			}
			s.writeCheckpoint()
			if k%2 == 0 && k < captures {
				if _, _, err := s.AdvanceSlot(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		// At most one ingest per poster was in flight at the last
		// capture: one more acknowledgment than that was logged after it.
		for at := sent.Load(); sent.Load() <= at+posters && !t.Failed(); {
			runtime.Gosched()
		}
		close(stop)
		wg.Wait()
		acked += sent.Load()
		for _, rec := range s.Plans() {
			planned += rec.Requests
		}
		s.Kill()
	}
}
