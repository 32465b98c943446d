package server_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// frontEnd is one way to serve clients: zoomied itself, or zfleet over
// one zoomied. Both run the one serving layer, so the wire tests that
// pin it take the front end as an input. start serves cfg's daemon
// behind the front end and returns the front end's counters and address.
type frontEnd struct {
	name  string
	start func(t *testing.T, cfg server.Config) (stats func() *wire.Stats, addr string)
}

var frontEnds = []frontEnd{
	{"zoomied", func(t *testing.T, cfg server.Config) (func() *wire.Stats, string) {
		srv, addr := startServer(t, cfg)
		return srv.Stats, addr
	}},
	{"zfleet", startFleetOver},
}

// eachFrontEnd runs body once per front end, as subtests.
func eachFrontEnd(t *testing.T, body func(t *testing.T, fe frontEnd)) {
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) { body(t, fe) })
	}
}

// startFleetOver serves one zoomied behind a zfleet coordinator and
// waits until the coordinator has qualified it.
func startFleetOver(t *testing.T, cfg server.Config) (func() *wire.Stats, string) {
	t.Helper()
	_, daemon := startServer(t, cfg)
	co, err := fleet.New(fleet.Config{
		Daemons:          []string{daemon},
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 250 * time.Millisecond,
		RequalifyBackoff: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- co.Serve(ln) }()
	t.Cleanup(func() {
		co.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	addr := ln.Addr().String()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := c.Call(&wire.Request{Op: wire.OpFleetStat})
		if err == nil && len(resp.Lines) == 1 && strings.Contains(resp.Lines[0], "healthy") {
			return co.Stats, addr
		}
		if time.Now().After(deadline) {
			t.Fatalf("zfleet never qualified its daemon: %v", err)
		}
	}
}
