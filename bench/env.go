package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// procStatusMB reads one "Vm*: N kB" field of /proc/self/status in MB
// (0 where /proc is not available).
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// stealTicks reads the cumulative steal time of all CPUs from
// /proc/stat, in clock ticks: time the hypervisor ran someone else
// while this VM wanted the CPU. The delta over a run says how much
// "machine weather" the run saw.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(data))
}

// commit is the VCS revision the binary was built from, when the go
// command stamped one (a checkout that is not a git repository has
// none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// envStamp describes where and how a run was taken. It is printed with
// every result so that two results can be told apart by more than
// their numbers.
func envStamp(o options, stealDelta int64) string {
	fsync := "no WAL"
	if o.workload.durable {
		fsync = fmt.Sprintf("%s/%s, checkpoint every %d", walFsync, walFsyncInterval, walCheckpointEvery)
	}
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s seed=%d scale=%s seconds=%g C=%d (closed loop, keep-alive) fsync=%s link=loopback, not a real link steal_ticks=%d",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), kernelRelease(),
		o.seed, o.scale.name, o.seconds, connections, fsync, stealDelta)
}
