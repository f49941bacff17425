package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	crowdcdn "repro"
)

// writeTinyWorld generates and persists a small world/trace pair for
// the file-input paths.
func writeTinyWorld(t *testing.T) (worldPath, tracePath string) {
	t.Helper()
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.NumHotspots = 20
	cfg.NumVideos = 400
	cfg.NumUsers = 300
	cfg.NumRequests = 700
	cfg.NumRegions = 4
	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	worldPath = filepath.Join(dir, "world.json")
	tracePath = filepath.Join(dir, "requests.csv")
	wf, err := os.Create(worldPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	if err := crowdcdn.WriteWorld(wf, world); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if err := crowdcdn.WriteRequests(tf, tr); err != nil {
		t.Fatal(err)
	}
	return worldPath, tracePath
}

// TestRunAllSchemesOnFiles runs every name of the scheme table, and
// guards the one place the names are spelled by hand — the -scheme line
// of the usage comment — against drifting from it.
func TestRunAllSchemesOnFiles(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if usage := "//\t-scheme " + strings.Join(crowdcdn.SchemeNames(), "|") + "\n"; !strings.Contains(string(src), usage) {
		t.Errorf("usage comment does not list the scheme table: want %q", usage)
	}
	for _, s := range crowdcdn.SchemeNames() {
		t.Run(s, func(t *testing.T) {
			err := run([]string{
				"-world", worldPath, "-trace", tracePath,
				"-scheme", s, "-json",
			})
			if err != nil {
				t.Fatalf("run(%s): %v", s, err)
			}
		})
	}
}

func TestRunLPOnTinyWorld(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	if err := run([]string{"-world", worldPath, "-trace", tracePath, "-scheme", "lp"}); err != nil {
		t.Fatalf("run(lp): %v", err)
	}
}

func TestRunWithOverridesAndChurn(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	// -churn takes [0, 1]; 1 is the whole fleet offline every slot.
	for _, churn := range []string{"0.2", "1"} {
		err := run([]string{
			"-world", worldPath, "-trace", tracePath,
			"-scheme", "nearest", "-capacity", "0.1", "-cache", "0.05", "-churn", churn,
		})
		if err != nil {
			t.Fatalf("run with overrides and -churn %s: %v", churn, err)
		}
	}
}

func TestRunObservabilityOutputs(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	err := run([]string{
		"-world", worldPath, "-trace", tracePath,
		"-scheme", "rbcaer", "-json",
		"-debug-addr", "127.0.0.1:0",
		"-metrics-out", metricsPath, "-events-out", eventsPath,
	})
	if err != nil {
		t.Fatalf("run with observability flags: %v", err)
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.rounds", "sim.requests_total", "timers"} {
		if !strings.Contains(string(snap), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	events, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"round"`, `"type":"slot"`, `"type":"theta-iter"`} {
		if !strings.Contains(string(events), want) {
			t.Errorf("event stream missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	if err := run([]string{"-scheme", "bogus", "-world", worldPath, "-trace", tracePath}); err == nil {
		t.Error("unknown scheme accepted")
	}
	// A retired scheme name is refused like any unknown one, with the
	// table's names.
	err := run([]string{"-scheme", "reactive-lru", "-world", worldPath, "-trace", tracePath})
	if want := `unknown scheme "reactive-lru" (want rbcaer, nearest, random, lp, hier, p2c)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-scheme reactive-lru: err = %v, want %q", err, want)
	}
	if err := run([]string{"-world", worldPath}); err == nil {
		t.Error("world without trace accepted")
	}
	if err := run([]string{"-world", "/does/not/exist.json", "-trace", tracePath}); err == nil {
		t.Error("missing world file accepted")
	}
	if err := run([]string{"-world", worldPath, "-trace", "/does/not/exist.csv"}); err == nil {
		t.Error("missing trace file accepted")
	}
	for _, churn := range []string{"2", "-0.1"} {
		if err := run([]string{"-churn", churn, "-world", worldPath, "-trace", tracePath}); err == nil {
			t.Errorf("-churn %s accepted", churn)
		}
	}
	if err := run([]string{"-scheme", "nearest", "-shard-cell-km", "3", "-world", worldPath, "-trace", tracePath}); err == nil {
		t.Error("sharding with non-rbcaer scheme accepted")
	}
	if err := run([]string{"-shard-cell-km", "-2", "-world", worldPath, "-trace", tracePath}); err == nil {
		t.Error("negative shard cell accepted")
	}
	// A negative capacity fraction is refused, not skipped.
	for _, flag := range []string{"-capacity", "-cache"} {
		err := run([]string{flag, "-0.05", "-world", worldPath, "-trace", tracePath})
		if err == nil || !strings.Contains(err.Error(), "must be non-negative") {
			t.Errorf("%s -0.05: err = %v, want it refused", flag, err)
		}
	}
	// A negative worker count is refused right after flag parsing, in
	// both modes and for every scheme, before any world is generated.
	for _, args := range [][]string{
		{"-workers", "-3", "-world", worldPath, "-trace", tracePath},
		{"-workers", "-3", "-scheme", "nearest", "-world", worldPath, "-trace", tracePath},
		{"-workers", "-3"},
		{"-workers", "-3", "-scenario", "/does/not/exist.yaml"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-workers -3: must be non-negative") {
			t.Errorf("%v: err = %v, want it refused", args, err)
		}
	}
	// Delta scheduling has no flags, and shards are grid cells only.
	for _, flag := range []string{"-delta", "-delta-verify", "-delta-every", "-shards"} {
		err := run([]string{flag, "-world", worldPath, "-trace", tracePath})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err = %v, want an undefined flag", flag, err)
		}
	}
}

func TestRunSharded(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	for _, args := range [][]string{
		{"-shard-cell-km", "4"},
		{"-shard-cell-km", "2"},
	} {
		err := run(append([]string{"-world", worldPath, "-trace", tracePath, "-scheme", "rbcaer", "-json"}, args...))
		if err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// writeScenario persists a scenario document for the -scenario path.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.yaml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const scenarioBody = `name: cli
world:
  seed: 9
  hotspots: 20
  videos: 300
  users: 200
  requests: 1000
  slots: 3
run:
  scheme: nearest
assert:
  - TotalRequests == 1000
`

func TestRunScenarioPasses(t *testing.T) {
	path := writeScenario(t, scenarioBody)
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatalf("passing scenario errored: %v", err)
	}
}

func TestRunScenarioViolationIsError(t *testing.T) {
	path := writeScenario(t, strings.Replace(scenarioBody, "== 1000", "== 1", 1))
	err := run([]string{"-scenario", path})
	if err == nil {
		t.Fatal("violated assertion did not error (cdnsim would exit zero)")
	}
	if !strings.Contains(err.Error(), "assertions failed") {
		t.Fatalf("error = %v, want assertion failure", err)
	}
}

func TestRunScenarioFlagConflicts(t *testing.T) {
	worldPath, tracePath := writeTinyWorld(t)
	path := writeScenario(t, scenarioBody)
	if err := run([]string{"-scenario", path, "-world", worldPath, "-trace", tracePath}); err == nil {
		t.Error("-scenario with -world/-trace accepted")
	}
	if err := run([]string{"-scenario", "/does/not/exist.yaml"}); err == nil {
		t.Error("missing scenario file accepted")
	}
	if err := run([]string{"-scenario", tracePath}); err == nil {
		t.Error("non-scenario file accepted")
	}
}
