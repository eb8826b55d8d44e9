package api

import (
	"bufio"
	"net"
	"testing"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// helloBackend answers hello; the gate turns every other request away
// before it could reach the rest of the (nil) Backend.
type helloBackend struct{ Backend }

func (helloBackend) Info() NodeInfo    { return NodeInfo{Name: "stub"} }
func (helloBackend) NewIssuer() Issuer { return nopIssuer{} }

type nopIssuer struct{ Issuer }

func (nopIssuer) Close() {}

// TestTypedHelloGate covers the server's connection gating: a
// version-mismatched hello is rejected with CodeVersion and the
// connection closes; a request before hello gets CodeBadRequest.
func TestTypedHelloGate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, helloBackend{}, nil)
	defer srv.Close()

	roundTrip := func(req Request) Response {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		frame, err := wire.AppendFrame(nil, cryptoutil.PublicKey{}, nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		fr := wire.NewFrameReader(bufio.NewReader(conn))
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("no response: %v", err)
		}
		resp, ok := f.Msg.(Response)
		if !ok {
			t.Fatalf("response is %T", f.Msg)
		}
		// The server must close the connection after a gate rejection.
		if _, err := fr.Next(); err == nil {
			t.Fatal("connection stayed open after gate rejection")
		}
		return resp
	}

	// 99 is a version from the future; Version-1 is the previous
	// release, whose routing messages were gob where this one's are
	// binary — it must be turned away here, not at its first routed
	// payment.
	for _, v := range []uint16{99, Version - 1} {
		resp := roundTrip(&HelloReq{Version: v})
		if code, _ := resp.Status(); code != CodeVersion {
			t.Fatalf("hello with version %d: %v", v, code)
		}
	}
	resp := roundTrip(&StatsReq{})
	if code, _ := resp.Status(); code != CodeBadRequest {
		t.Fatalf("request before hello: %v", code)
	}
}
