// Command cdntrace generates a synthetic crowdsourced-CDN world and
// request trace and writes them to disk (world.json + requests.csv),
// substituting for the paper's proprietary iQiyi / Wi-Fi AP datasets.
//
// Usage:
//
//	cdntrace [flags]
//
//	-preset eval|measurement   base configuration (default eval)
//	-seed N                    generator seed (default 1)
//	-hotspots/-videos/-users/-requests/-slots N
//	                           override individual population counts
//	-out DIR                   output directory (default ".")
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	crowdcdn "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cdntrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdntrace", flag.ContinueOnError)
	preset := fs.String("preset", "eval", "base configuration: eval (Sec. V scale) or measurement (Sec. II scale)")
	seed := fs.Int64("seed", 1, "generator seed")
	hotspots := fs.Int("hotspots", 0, "override hotspot count")
	videos := fs.Int("videos", 0, "override video-catalogue size")
	users := fs.Int("users", 0, "override user count")
	requests := fs.Int("requests", 0, "override request count")
	slots := fs.Int("slots", 0, "override timeslot count")
	out := fs.String("out", ".", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg crowdcdn.TraceConfig
	switch *preset {
	case "eval":
		cfg = crowdcdn.DefaultTraceConfig()
	case "measurement":
		cfg = crowdcdn.MeasurementTraceConfig()
	default:
		return fmt.Errorf("unknown preset %q (want eval or measurement)", *preset)
	}
	cfg.Seed = *seed
	for _, o := range []struct {
		flag string
		v    int
		dst  *int
	}{
		{"hotspots", *hotspots, &cfg.NumHotspots},
		{"videos", *videos, &cfg.NumVideos},
		{"users", *users, &cfg.NumUsers},
		{"requests", *requests, &cfg.NumRequests},
		{"slots", *slots, &cfg.Slots},
	} {
		if o.v < 0 {
			return fmt.Errorf("-%s %d: must be non-negative (0 keeps the preset's)", o.flag, o.v)
		}
		if o.v > 0 {
			*o.dst = o.v
		}
	}

	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	worldPath := filepath.Join(*out, "world.json")
	reqPath := filepath.Join(*out, "requests.csv")

	if err := writeFile(worldPath, func(f *os.File) error {
		return crowdcdn.WriteWorld(f, world)
	}); err != nil {
		return err
	}
	if err := writeFile(reqPath, func(f *os.File) error {
		return crowdcdn.WriteRequests(f, tr)
	}); err != nil {
		return err
	}

	fmt.Printf("wrote %s and %s\n\n", worldPath, reqPath)
	summary, err := crowdcdn.Summarize(world, tr)
	if err != nil {
		return err
	}
	return summary.Render(os.Stdout)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
