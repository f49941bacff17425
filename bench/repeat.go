package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// childResult is what one run in its own process printed.
type childResult struct {
	metrics     map[string]float64
	units       map[string]string
	fingerprint string
}

// runChild runs one workload once in a child process — peak memory is
// a property of a process, so runs must not share one — and parses its
// report. The child's report is copied to stdout.
func runChild(self string, args []string, stdout io.Writer) (*childResult, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", strings.Join(args, " "), err)
	}
	if _, err := stdout.Write(out.Bytes()); err != nil {
		return nil, err
	}
	res := &childResult{metrics: map[string]float64{}, units: map[string]string{}}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "plans: fingerprint "); ok {
			res.fingerprint, _, _ = strings.Cut(rest, " ")
		}
	}
	var parsed struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil || !parsed.Correct {
		return nil, fmt.Errorf("bench %s: no result on the last line: %q", strings.Join(args, " "), last)
	}
	for name, m := range parsed.Metrics {
		res.metrics[name] = m.Value
		res.units[name] = m.Unit
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// which is how the driver computes a metric's spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// runAll runs each named workload repeat times, run k with seed+k as
// the driver does, and prints every metric's minimum, median, maximum
// and spread (interquartile range over median). With repeat > 1 it
// returns an error if a gated metric's spread exceeds its bound, or if
// edge_mem and edge_wal — same seed, same trace — disagree on a plan.
func runAll(names []string, repeat int, seed int64, pass []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	units := map[string]string{}
	prints := map[int64]map[string]string{} // seed -> workload -> fingerprint
	for _, name := range names {
		values[name] = map[string][]float64{}
		for k := 0; k < repeat; k++ {
			s := seed + int64(k)
			args := append([]string{"-workload", name, "-seed", strconv.FormatInt(s, 10)}, pass...)
			res, err := runChild(self, args, stdout)
			if err != nil {
				return err
			}
			for metric, v := range res.metrics {
				values[name][metric] = append(values[name][metric], v)
				units[metric] = res.units[metric]
			}
			if prints[s] == nil {
				prints[s] = map[string]string{}
			}
			prints[s][name] = res.fingerprint
		}
	}
	for s, byWorkload := range prints {
		if a, b := byWorkload["edge_mem"], byWorkload["edge_wal"]; a != "" && b != "" && a != b {
			return fmt.Errorf("seed %d: edge_mem plans %s, edge_wal plans %s: the same trace must give the same plans", s, a, b)
		}
	}
	if repeat < 2 {
		return nil
	}
	bounds := map[string]float64{}
	for _, g := range endToEnd {
		bounds[g.name] = g.bound
	}
	fmt.Fprintf(stdout, "\n%-11s %-28s %12s %12s %12s %-7s %8s %6s\n", "workload", "metric", "min", "median", "max", "unit", "spread", "bound")
	var over []string
	for _, name := range names {
		for _, metric := range sortedNames(values[name]) {
			xs := values[name][metric]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			line := fmt.Sprintf("%-11s %-28s %12.4f %12.4f %12.4f %-7s %7.1f%%", name, metric, slices.Min(xs), q2, slices.Max(xs), units[metric], 100*spread)
			// setup_s is gated on its median only: the driver exempts
			// its spread.
			if bound, ok := bounds[metric]; ok && metric != "setup_s" {
				line += fmt.Sprintf(" %5.0f%%", 100*bound)
				if spread > bound {
					line += "  OVER"
					over = append(over, name+"/"+metric)
				}
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread above bound over %d runs: %s", repeat, strings.Join(over, ", "))
	}
	return nil
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
