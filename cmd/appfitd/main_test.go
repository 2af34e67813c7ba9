package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts: the daemon's server carries its named timeouts.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts %v/%v/%v, want %v/%v/%v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("every timeout must be set")
	}
}

// TestStalledHeaderIsDisconnected: a client that sends half a request
// header and then stalls is disconnected once the header timeout expires.
// The timeout is shortened here so the test runs in milliseconds; the
// mechanism is the one the daemon's constant drives.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /submit HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server closes the connection, possibly after answering 408; read
	// to EOF either way.
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept the stalled connection open")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("disconnect took %v", waited)
	}
}
