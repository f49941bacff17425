package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestClientKeepAlive: many requests of both kinds travel over the one
// connection the client dialled, and every reply is the reply to the
// request just sent.
func TestClientKeepAlive(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ingest":
			body, _ := io.ReadAll(r.Body)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "%d:%s", r.ContentLength, body)
		case "/redirect":
			fmt.Fprintf(w, "%s/%s", r.URL.Query().Get("video"), r.URL.Query().Get("hotspot"))
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c, err := dial(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < 200; i++ {
		x, y := float64(i)/7, 1e-9*float64(i)
		status, body, err := c.ingest(i, 2*i, x, y)
		if err != nil || status != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d, err %v", i, status, err)
		}
		sent := appendIngestBody(nil, i, 2*i, x, y)
		if want := fmt.Sprintf("%d:%s", len(sent), sent); string(body) != want {
			t.Fatalf("ingest %d: server saw %q, want %q", i, body, want)
		}
		status, body, err = c.redirect(i, i+1)
		if err != nil || status != http.StatusOK || string(body) != fmt.Sprintf("%d/%d", i, i+1) {
			t.Fatalf("redirect %d: status %d, body %q, err %v", i, status, body, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("400 requests used %d connections, want 1", n)
	}
}

// TestClientContentLength: bodies from empty to larger than the
// client's initial buffer are returned whole, and the next reply still
// parses.
func TestClientContentLength(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("video"))
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(bytes.Repeat([]byte{'a' + byte(n%26)}, n))
	}))
	defer srv.Close()
	c, err := dial(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, n := range []int{0, 1, 95, 4095, 4096, 4097, 20000, 3, 0, 70000, 12} {
		status, body, err := c.redirect(n, 0)
		if err != nil || status != http.StatusOK {
			t.Fatalf("size %d: status %d, err %v", n, status, err)
		}
		if len(body) != n || strings.Trim(string(body), string(rune('a'+n%26))) != "" {
			t.Fatalf("size %d: got %d bytes %.20q", n, len(body), body)
		}
	}
}

// TestClientStatus: the status code is whatever the server answered.
func TestClientStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("video"))
		w.WriteHeader(code)
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	c, err := dial(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, code := range []int{200, 202, 400, 404, 413, 429, 500, 503} {
		status, body, err := c.redirect(code, 0)
		if err != nil || status != code || string(body) != "{}" {
			t.Fatalf("want %d {}: got %d %q, err %v", code, status, body, err)
		}
	}
}

// TestClientRefusesWhatItCannotParse: a chunked reply and a connection
// closed mid-reply are errors, not silently short bodies.
func TestClientRefusesWhatItCannotParse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("video") == "1" {
			w.(http.Flusher).Flush() // headers go out before the length is known: chunked
			io.WriteString(w, "late")
			return
		}
		conn, _, _ := w.(http.Hijacker).Hijack()
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
		conn.Close()
	}))
	defer srv.Close()
	for video, want := range map[int]string{1: "Content-Length", 2: "reading response"} {
		c, err := dial(srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.redirect(video, 0)
		c.close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("video %d: err %v, want one mentioning %q", video, err, want)
		}
	}
}

func TestParseHead(t *testing.T) {
	for _, bad := range []string{
		"", "HTTP/1.1\r\n\r\n", "HTTP/1.1 2x2 OK\r\nContent-Length: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n",
		"SPDY/3 200 OK\r\nContent-Length: 1\r\n\r\n",
	} {
		if _, _, err := parseHead([]byte(bad)); err == nil {
			t.Errorf("parseHead(%q) succeeded", bad)
		}
	}
	status, length, err := parseHead([]byte("HTTP/1.1 202 Accepted\r\nDate: x\r\ncontent-LENGTH:  17 \r\n\r\n"))
	if err != nil || status != 202 || length != 17 {
		t.Errorf("got %d, %d, %v", status, length, err)
	}
}
