package server_test

import (
	"fmt"
	"net"
	"testing"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
)

// benchTarget starts a server on loopback and attaches one session. The
// bench64 design (64 independent
// counters) is registered so batched peeks have distinct state to read.
func benchTarget(b *testing.B) *client.Session {
	b.Helper()
	server.Register("bench64", server.Entry{
		Describe: "64-register design for wire benchmarks",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			m := zoomie.NewModule("bench64")
			q := m.Output("q", 16)
			for i := 0; i < 64; i++ {
				r := m.Reg(fmt.Sprintf("r%d", i), 16, "clk", 0)
				m.SetNext(r, zoomie.Add(zoomie.S(r), zoomie.C(uint64(i+1), 16)))
				if i == 0 {
					m.Connect(q, zoomie.S(r))
				}
			}
			return zoomie.NewDesign("bench64", m), zoomie.DebugConfig{Watches: []string{"q"}}
		},
	})
	b.Cleanup(func() { server.Unregister("bench64") })

	srv := server.New(server.Config{PoolSize: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	b.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	sess, err := c.Attach("bench64")
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		b.Fatal(err)
	}
	return sess
}

// BenchmarkRemotePeek measures one single-register peek over loopback
// TCP — the interactive paused-debug hot path.
func BenchmarkRemotePeek(b *testing.B) {
	sess := benchTarget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Peek("r0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemotePeekBatch measures a 64-item batched peek over
// loopback — one wire round trip carrying the whole plan.
func BenchmarkRemotePeekBatch(b *testing.B) {
	items := make([]dbg.PlanItem, 64)
	for i := range items {
		items[i] = dbg.PlanItem{Name: fmt.Sprintf("r%d", i)}
	}
	sess := benchTarget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := sess.PeekBatch(items)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != 64 {
			b.Fatalf("got %d values", len(vals))
		}
	}
}
