package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/geo"
)

// worldJSON is the on-disk representation of a World.
type worldJSON struct {
	Bounds        geo.Rect      `json:"bounds"`
	NumVideos     int           `json:"num_videos"`
	CDNDistanceKm float64       `json:"cdn_distance_km"`
	Hotspots      []hotspotJSON `json:"hotspots"`
}

type hotspotJSON struct {
	ID              HotspotID `json:"id"`
	X               float64   `json:"x"`
	Y               float64   `json:"y"`
	ServiceCapacity int64     `json:"service_capacity"`
	CacheCapacity   int       `json:"cache_capacity"`
}

// WriteWorld encodes the world as JSON.
func WriteWorld(w io.Writer, world *World) error {
	wj := worldJSON{
		Bounds:        world.Bounds,
		NumVideos:     world.NumVideos,
		CDNDistanceKm: world.CDNDistanceKm,
		Hotspots:      make([]hotspotJSON, len(world.Hotspots)),
	}
	for i, h := range world.Hotspots {
		wj.Hotspots[i] = hotspotJSON{
			ID:              h.ID,
			X:               h.Location.X,
			Y:               h.Location.Y,
			ServiceCapacity: h.ServiceCapacity,
			CacheCapacity:   h.CacheCapacity,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wj); err != nil {
		return fmt.Errorf("trace: encoding world: %w", err)
	}
	return nil
}

// ReadWorld decodes a world written by WriteWorld and validates it.
func ReadWorld(r io.Reader) (*World, error) {
	var wj worldJSON
	if err := json.NewDecoder(r).Decode(&wj); err != nil {
		return nil, fmt.Errorf("trace: decoding world: %w", err)
	}
	world := &World{
		Bounds:        wj.Bounds,
		NumVideos:     wj.NumVideos,
		CDNDistanceKm: wj.CDNDistanceKm,
		Hotspots:      make([]Hotspot, len(wj.Hotspots)),
	}
	for i, h := range wj.Hotspots {
		world.Hotspots[i] = Hotspot{
			ID:              h.ID,
			Location:        geo.Point{X: h.X, Y: h.Y},
			ServiceCapacity: h.ServiceCapacity,
			CacheCapacity:   h.CacheCapacity,
		}
	}
	if err := world.Validate(); err != nil {
		return nil, err
	}
	return world, nil
}

// requestHeader is the CSV column layout for request traces, mirroring
// the four fields of the paper's session records (user, timestamp,
// video, location) plus a request id.
var requestHeader = []string{"id", "user", "video", "x", "y", "slot"}

// WriteRequests encodes the trace as CSV with a header row.
func WriteRequests(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(requestHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	rec := make([]string, len(requestHeader))
	for _, r := range tr.Requests {
		rec[0] = strconv.Itoa(r.ID)
		rec[1] = strconv.Itoa(int(r.User))
		rec[2] = strconv.Itoa(int(r.Video))
		rec[3] = strconv.FormatFloat(r.Location.X, 'f', 5, 64)
		rec[4] = strconv.FormatFloat(r.Location.Y, 'f', 5, 64)
		rec[5] = strconv.Itoa(r.Slot)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing request %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing requests: %w", err)
	}
	return nil
}

// ReadRequests decodes a CSV trace written by WriteRequests. The slot
// count is inferred as max(slot)+1.
func ReadRequests(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(requestHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	for i, want := range requestHeader {
		if header[i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], want)
		}
	}
	tr := &Trace{Slots: 1}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading line %d: %w", line, err)
		}
		req, err := parseRequest(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if req.Slot+1 > tr.Slots {
			tr.Slots = req.Slot + 1
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

func parseRequest(rec []string) (Request, error) {
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return Request{}, fmt.Errorf("bad id %q: %w", rec[0], err)
	}
	user, err := strconv.Atoi(rec[1])
	if err != nil {
		return Request{}, fmt.Errorf("bad user %q: %w", rec[1], err)
	}
	video, err := strconv.Atoi(rec[2])
	if err != nil {
		return Request{}, fmt.Errorf("bad video %q: %w", rec[2], err)
	}
	x, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad x %q: %w", rec[3], err)
	}
	y, err := strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad y %q: %w", rec[4], err)
	}
	slot, err := strconv.Atoi(rec[5])
	if err != nil {
		return Request{}, fmt.Errorf("bad slot %q: %w", rec[5], err)
	}
	if slot < 0 {
		return Request{}, fmt.Errorf("negative slot %d", slot)
	}
	return Request{
		ID:       id,
		User:     UserID(user),
		Video:    VideoID(video),
		Location: geo.Point{X: x, Y: y},
		Slot:     slot,
	}, nil
}

// LoadFiles reads a world file (WriteWorld's JSON) and a trace file
// (WriteRequests' CSV) and checks that the trace fits the world, as the
// simulator does. Two empty paths return a nil world and trace, for a
// caller that generates its own; one empty path is an error.
func LoadFiles(worldPath, tracePath string) (*World, *Trace, error) {
	if (worldPath == "") != (tracePath == "") {
		return nil, nil, fmt.Errorf("provide both -world and -trace, or neither")
	}
	if worldPath == "" {
		return nil, nil, nil
	}
	wf, err := os.Open(worldPath)
	if err != nil {
		return nil, nil, err
	}
	defer wf.Close()
	world, err := ReadWorld(wf)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", worldPath, err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		return nil, nil, err
	}
	defer tf.Close()
	tr, err := ReadRequests(tf)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", tracePath, err)
	}
	if err := tr.Validate(world); err != nil {
		return nil, nil, fmt.Errorf("%s does not fit %s: %w", tracePath, worldPath, err)
	}
	return world, tr, nil
}
