package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geo"
)

func testWorld() *World {
	return &World{
		Bounds:        geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		NumVideos:     100,
		CDNDistanceKm: 14.14,
		Hotspots: []Hotspot{
			{ID: 0, Location: geo.Point{X: 1, Y: 2}, ServiceCapacity: 5, CacheCapacity: 3},
			{ID: 1, Location: geo.Point{X: 3.5, Y: 4.25}, ServiceCapacity: 7, CacheCapacity: 4},
		},
	}
}

func TestWorldRoundTrip(t *testing.T) {
	want := testWorld()
	var buf bytes.Buffer
	if err := WriteWorld(&buf, want); err != nil {
		t.Fatalf("WriteWorld: %v", err)
	}
	got, err := ReadWorld(&buf)
	if err != nil {
		t.Fatalf("ReadWorld: %v", err)
	}
	if got.Bounds != want.Bounds || got.NumVideos != want.NumVideos ||
		got.CDNDistanceKm != want.CDNDistanceKm {
		t.Errorf("world metadata mismatch: %+v vs %+v", got, want)
	}
	if len(got.Hotspots) != len(want.Hotspots) {
		t.Fatalf("hotspot count %d, want %d", len(got.Hotspots), len(want.Hotspots))
	}
	for i := range want.Hotspots {
		if got.Hotspots[i] != want.Hotspots[i] {
			t.Errorf("hotspot %d = %+v, want %+v", i, got.Hotspots[i], want.Hotspots[i])
		}
	}
}

func TestReadWorldInvalid(t *testing.T) {
	if _, err := ReadWorld(strings.NewReader("not json")); err == nil {
		t.Error("ReadWorld(garbage) succeeded")
	}
	// Valid JSON but invalid world (no hotspots).
	if _, err := ReadWorld(strings.NewReader(`{"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"num_videos":5,"cdn_distance_km":1,"hotspots":[]}`)); err == nil {
		t.Error("ReadWorld(empty hotspots) succeeded")
	}
}

func TestRequestsRoundTrip(t *testing.T) {
	want := &Trace{
		Slots: 3,
		Requests: []Request{
			{ID: 0, User: 7, Video: 42, Location: geo.Point{X: 1.5, Y: 2.25}, Slot: 0},
			{ID: 1, User: 8, Video: 3, Location: geo.Point{X: 9.125, Y: 0.5}, Slot: 2},
		},
	}
	var buf bytes.Buffer
	if err := WriteRequests(&buf, want); err != nil {
		t.Fatalf("WriteRequests: %v", err)
	}
	got, err := ReadRequests(&buf)
	if err != nil {
		t.Fatalf("ReadRequests: %v", err)
	}
	if got.Slots != want.Slots {
		t.Errorf("Slots = %d, want %d", got.Slots, want.Slots)
	}
	if len(got.Requests) != len(want.Requests) {
		t.Fatalf("request count %d, want %d", len(got.Requests), len(want.Requests))
	}
	for i := range want.Requests {
		w, g := want.Requests[i], got.Requests[i]
		if g.ID != w.ID || g.User != w.User || g.Video != w.Video || g.Slot != w.Slot {
			t.Errorf("request %d = %+v, want %+v", i, g, w)
		}
		if g.Location.DistanceTo(w.Location) > 1e-4 {
			t.Errorf("request %d location %v, want %v", i, g.Location, w.Location)
		}
	}
}

func TestReadRequestsErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"bad header", "a,b,c,d,e,f\n"},
		{"short row", "id,user,video,x,y,slot\n1,2\n"},
		{"bad id", "id,user,video,x,y,slot\nx,2,3,1.0,1.0,0\n"},
		{"bad user", "id,user,video,x,y,slot\n1,x,3,1.0,1.0,0\n"},
		{"bad video", "id,user,video,x,y,slot\n1,2,x,1.0,1.0,0\n"},
		{"bad x", "id,user,video,x,y,slot\n1,2,3,x,1.0,0\n"},
		{"bad y", "id,user,video,x,y,slot\n1,2,3,1.0,x,0\n"},
		{"bad slot", "id,user,video,x,y,slot\n1,2,3,1.0,1.0,x\n"},
		{"negative slot", "id,user,video,x,y,slot\n1,2,3,1.0,1.0,-1\n"},
		{"empty", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadRequests(strings.NewReader(tt.data)); err == nil {
				t.Error("ReadRequests() succeeded, want error")
			}
		})
	}
}

func TestGeneratedTraceRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.NumRequests = 500
	cfg.Slots = 4
	world, tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wbuf, rbuf bytes.Buffer
	if err := WriteWorld(&wbuf, world); err != nil {
		t.Fatal(err)
	}
	if err := WriteRequests(&rbuf, tr); err != nil {
		t.Fatal(err)
	}
	world2, err := ReadWorld(&wbuf)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadRequests(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(world2); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	if len(tr2.Requests) != len(tr.Requests) || tr2.Slots != tr.Slots {
		t.Errorf("round trip lost requests: %d/%d slots %d/%d",
			len(tr2.Requests), len(tr.Requests), tr2.Slots, tr.Slots)
	}
}

// TestLoadFiles reads a world/trace file pair back and refuses a lone
// path, missing or malformed files, and a trace that does not fit the
// world.
func TestLoadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fill func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	world := testWorld()
	worldPath := write("world.json", func(b *bytes.Buffer) error { return WriteWorld(b, world) })
	fits := &Trace{Slots: 2, Requests: []Request{{ID: 0, Video: 99, Slot: 1}}}
	tracePath := write("requests.csv", func(b *bytes.Buffer) error { return WriteRequests(b, fits) })
	misfit := &Trace{Slots: 1, Requests: []Request{{ID: 0, Video: 100}}}
	misfitPath := write("misfit.csv", func(b *bytes.Buffer) error { return WriteRequests(b, misfit) })
	garbage := write("garbage", func(b *bytes.Buffer) error { _, err := b.WriteString("not json"); return err })

	w, tr, err := LoadFiles(worldPath, tracePath)
	if err != nil || len(w.Hotspots) != len(world.Hotspots) || tr.Slots != 2 || len(tr.Requests) != 1 {
		t.Fatalf("LoadFiles = %+v, %+v, %v", w, tr, err)
	}
	if w, tr, err := LoadFiles("", ""); w != nil || tr != nil || err != nil {
		t.Errorf("LoadFiles with no paths = %v, %v, %v; want nil, nil, nil", w, tr, err)
	}
	for _, paths := range [][2]string{
		{worldPath, ""}, {"", tracePath},
		{filepath.Join(dir, "missing.json"), tracePath}, {worldPath, filepath.Join(dir, "missing.csv")},
		{garbage, tracePath}, {worldPath, garbage},
		{worldPath, misfitPath},
	} {
		if _, _, err := LoadFiles(paths[0], paths[1]); err == nil {
			t.Errorf("LoadFiles(%q, %q) succeeded", paths[0], paths[1])
		}
	}
}
