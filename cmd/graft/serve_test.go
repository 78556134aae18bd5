package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerReadTimeoutClosesTrickledBody: the daemon's server bounds a
// whole request, not only its headers, and sets no write deadline; with
// the bound shortened, a client that trickles a POST body has its
// connection closed instead of holding it open.
func TestServerReadTimeoutClosesTrickledBody(t *testing.T) {
	srv := httpServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	if srv.ReadTimeout != readTimeout || srv.ReadHeaderTimeout != readHeaderTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("server timeouts: read %v, header %v, write %v", srv.ReadTimeout, srv.ReadHeaderTimeout, srv.WriteTimeout)
	}
	srv.ReadTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /api/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_, _ = io.Copy(io.Discard, bufio.NewReader(conn)) // returns once the server closes
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-closed:
			return
		case <-deadline:
			t.Fatal("the server kept a trickling request's connection open")
		case <-tick.C:
			_, _ = conn.Write([]byte{'x'})
		}
	}
}
