package client

import (
	"net"
	"strings"
	"testing"

	"teechain/internal/api"
	"teechain/internal/chain"
)

// TestPendingCallFailsWhenServerDies: a call still waiting for its
// answer when the server goes away fails at once with "connection
// lost", not at its timeout.
func TestPendingCallFailsWhenServerDies(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	b := &stubBackend{routed: func(string, chain.Amount) (api.RouteInfo, error) {
		close(entered)
		<-release
		return api.RouteInfo{}, nil
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := api.Serve(ln, b, nil)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := c.PayRouted("dst", 1)
		errc <- err
	}()
	<-entered // the server holds the request: the call is pending
	closed := make(chan struct{})
	go func() {
		srv.Close() // drops the connection, then waits for the handler
		close(closed)
	}()
	err = <-errc
	close(release)
	<-closed
	if err == nil || !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("pending call after the server died: %v, want connection lost", err)
	}
}
