package eisvc

import (
	"net"
	"net/http"
	"time"
)

// Listener timeouts every HTTP server in the tree gets. Constants, not
// knobs: a peer that cannot send its request headers in ten seconds is
// not a client, and an idle keep-alive connection is worth holding for a
// couple of minutes of fleet fan-out, not forever.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer is the one place an http.Server is constructed, so no
// listener goes up without the timeouts above. Deliberately no Read- or
// WriteTimeout: an evaluation may legitimately run long, and request
// bodies are bounded in bytes (MaxBodyBytes) instead.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// ServeOn serves h on ln in the background. stop closes the listener and
// every connection, and waits for the serve loop to exit.
func ServeOn(ln net.Listener, h http.Handler) (stop func()) {
	hs := NewHTTPServer(h)
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln)
		close(done)
	}()
	return func() {
		_ = hs.Close()
		<-done
	}
}

// ServeLoopback serves h on an ephemeral loopback port and returns its
// base URL and the stop func (see ServeOn).
func ServeLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return "http://" + ln.Addr().String(), ServeOn(ln, h), nil
}
