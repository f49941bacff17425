package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "fig9"}); err != nil {
		t.Fatalf("run(fig9): %v", err)
	}
}

func TestRunExtensionExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "abl-theta"}); err != nil {
		t.Fatalf("run(abl-theta): %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "0.05", "-csv", dir, "fig9"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatalf("fig9.csv missing: %v", err)
	}
	if len(data) == 0 {
		t.Error("fig9.csv empty")
	}
}
