package zoomie_test

import (
	"reflect"
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/workloads"
)

// TestManycoreStateOnPrimary pins hop-ranked placement end to end: the
// 48-core SoC under the default DebugConfig places every register and
// memory, the Debug Controller's zdbg.* included, on the primary SLR,
// so a peek of the paused design is one stream with no BOUT hop.
func TestManycoreStateOnPrimary(t *testing.T) {
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	primary := sess.Result.Options.Device.Primary
	m := sess.Result.Image.Map
	var dbgRegs, offPrimary int
	var userReg string
	for _, r := range m.Regs {
		if r.Addr.SLR != primary {
			offPrimary++
		}
		switch {
		case strings.HasPrefix(r.Name, "zdbg."):
			dbgRegs++
		case userReg == "" && strings.HasPrefix(r.Name, "dut."):
			userReg = r.Name
		}
	}
	for _, mem := range m.Mems {
		if mem.SLR != primary {
			offPrimary++
		}
	}
	if offPrimary > 0 {
		t.Errorf("%d of %d registers and memories placed off the primary SLR %d",
			offPrimary, len(m.Regs)+len(m.Mems), primary)
	}
	if dbgRegs == 0 || userReg == "" || len(m.Mems) == 0 {
		t.Fatalf("state map lacks controller registers (%d), a design register (%q) or memories (%d)",
			dbgRegs, userReg, len(m.Mems))
	}

	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	before := sess.Cable.Chain.Stats
	if _, err := sess.Peek(userReg); err != nil {
		t.Fatal(err)
	}
	after := sess.Cable.Chain.Stats
	if hops, streams := after.Hops-before.Hops, after.Streams-before.Streams; hops != 0 || streams != 1 {
		t.Errorf("peek of %s cost %d hops in %d streams, want 0 hops in 1 stream", userReg, hops, streams)
	}
}

// TestGuardedBootOverFlakyLink boots the 48-core SoC through a guarded
// cable that flips 0.5% of the words it reads and writes and fails a
// quarter of a percent of its operations: chaos_remote's link with write
// flips added. Seed 5 once exhausted the transport's retries, because
// each SLR's initial frames went out as one verified transfer whose
// single stream a transient error voided; the boot now writes them in
// bounded chunks, and the booted state must equal a clean boot's.
func TestGuardedBootOverFlakyLink(t *testing.T) {
	inj := zoomie.NewFaultInjector(zoomie.FaultProfile{Seed: 5, ReadFlip: .005, WriteFlip: .005, Exec: .0025})
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{Faults: inj})
	if err != nil {
		t.Fatalf("guarded boot: %v", err)
	}
	defer sess.Close()
	clean, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	for _, s := range []*zoomie.Session{sess, clean} {
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("state booted over the flaky link differs from a clean boot")
	}
}
