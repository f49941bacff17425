package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// client is a hand-rolled HTTP/1.1 keep-alive client over one TCP
// connection. The benchmark measures the server, so the client formats
// each request into its own scratch, writes it with one Write, and
// parses the reply in place: no net/http client, no per-request
// allocation. It understands exactly what the serving tier answers —
// a status line, headers with a Content-Length, and a body — and
// reports anything else (chunked encoding, a closed connection) as an
// error.
type client struct {
	conn net.Conn
	req  []byte // the request being built
	body []byte // the JSON body being built
	buf  []byte // bytes read from the connection
	r, w int    // buf[r:w] is read but not yet consumed
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{
		conn: conn,
		req:  make([]byte, 0, 512),
		body: make([]byte, 0, 256),
		buf:  make([]byte, 4096),
	}, nil
}

func (c *client) close() { c.conn.Close() }

const (
	ingestHead   = "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "
	redirectHead = "GET /redirect?video="
	requestTail  = " HTTP/1.1\r\nHost: bench\r\n\r\n"
)

// ingest sends POST /ingest {"user","video","x","y"}. The coordinates
// are written in the shortest form that parses back to the same
// float64, so the server resolves the nearest hotspot from exactly the
// location the offline simulator sees.
func (c *client) ingest(user, video int, x, y float64) (int, []byte, error) {
	b := appendIngestBody(c.body[:0], user, video, x, y)
	c.body = b
	q := append(c.req[:0], ingestHead...)
	q = strconv.AppendInt(q, int64(len(b)), 10)
	q = append(q, "\r\n\r\n"...)
	q = append(q, b...)
	c.req = q
	return c.do(q)
}

// appendIngestBody appends the JSON body of one ingest request.
func appendIngestBody(b []byte, user, video int, x, y float64) []byte {
	b = append(b, `{"user":`...)
	b = strconv.AppendInt(b, int64(user), 10)
	b = append(b, `,"video":`...)
	b = strconv.AppendInt(b, int64(video), 10)
	b = append(b, `,"x":`...)
	b = strconv.AppendFloat(b, x, 'g', -1, 64)
	b = append(b, `,"y":`...)
	b = strconv.AppendFloat(b, y, 'g', -1, 64)
	return append(b, '}')
}

// redirect sends GET /redirect?video=V&hotspot=H.
func (c *client) redirect(video, hotspot int) (int, []byte, error) {
	q := append(c.req[:0], redirectHead...)
	q = strconv.AppendInt(q, int64(video), 10)
	q = append(q, "&hotspot="...)
	q = strconv.AppendInt(q, int64(hotspot), 10)
	q = append(q, requestTail...)
	c.req = q
	return c.do(q)
}

// do writes one request and reads one response, returning the status
// code and the body. The body aliases the client's buffer and is valid
// until the next call.
func (c *client) do(req []byte) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	// Read until the blank line that ends the headers. They are ~120
	// bytes and nearly always arrive in one read, so rescanning from
	// c.r after a short read costs nothing.
	var end int
	for {
		if i := bytes.Index(c.buf[c.r:c.w], crlfcrlf); i >= 0 {
			end = c.r + i + len(crlfcrlf)
			break
		}
		if err := c.fill(); err != nil {
			return 0, nil, err
		}
	}
	head := c.buf[c.r:end]
	status, length, err := parseHead(head)
	if err != nil {
		return 0, nil, err
	}
	c.r = end
	for c.w-c.r < length {
		if err := c.fill(); err != nil {
			return 0, nil, err
		}
	}
	body := c.buf[c.r : c.r+length]
	c.r += length
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	return status, body, nil
}

var (
	crlfcrlf      = []byte("\r\n\r\n")
	contentLength = []byte("content-length:")
)

// fill reads more bytes from the connection, first moving unconsumed
// bytes to the front (and growing the buffer) when it is full.
func (c *client) fill() error {
	if c.w == len(c.buf) {
		if c.r > 0 {
			c.w = copy(c.buf, c.buf[c.r:c.w])
			c.r = 0
		} else {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
	}
	n, err := c.conn.Read(c.buf[c.w:])
	c.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = errors.New("empty read")
	}
	return fmt.Errorf("reading response: %w", err)
}

// parseHead parses "HTTP/1.1 NNN reason\r\n" plus headers and returns
// the status code and the Content-Length.
func parseHead(head []byte) (int, int, error) {
	line, rest, _ := bytes.Cut(head, crlfcrlf[:2])
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, crlfcrlf[:2])
		if len(line) >= len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			if length, ok = atoi(bytes.TrimSpace(line[len(contentLength):])); !ok {
				return 0, 0, fmt.Errorf("malformed header %q", line)
			}
		}
	}
	if length < 0 {
		return 0, 0, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	return status, length, nil
}

// atoi parses a short non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}
