package zoomie_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
	"zoomie/internal/gen"
	"zoomie/internal/history"
	"zoomie/internal/workloads"
)

// boardWriteLog is an unguarded configuration backend straight onto a
// board that records the address of every frame written through it.
// Restores issue no control or mask write, so it serves only frames.
type boardWriteLog struct {
	b       *fpga.Board
	written [][2]int
}

func (l *boardWriteLog) NumSLRs() int         { return len(l.b.Device.SLRs) }
func (l *boardWriteLog) Primary() int         { return l.b.Device.Primary }
func (l *boardWriteLog) FramesIn(slr int) int { return l.b.Device.SLRs[slr].Frames }
func (l *boardWriteLog) FrameWords() int      { return fpga.FrameWords }
func (l *boardWriteLog) IDCode(slr int) uint32 {
	return bitstream.IDCodeFor(l.b.Device.Name, slr)
}
func (l *boardWriteLog) ReadFrame(slr, frame int) ([]uint32, error) {
	return l.b.ReadFrame(slr, frame)
}
func (l *boardWriteLog) WriteFrame(slr, frame int, data []uint32) error {
	l.written = append(l.written, [2]int{slr, frame})
	return l.b.WriteFrame(slr, frame, data)
}
func (l *boardWriteLog) WriteCTL(int, uint32) error {
	return fmt.Errorf("restore issued a control write")
}
func (l *boardWriteLog) WriteMask(int, uint32) error {
	return fmt.Errorf("restore issued a mask write")
}

// shellU200 is a U200 whose primary keeps half its capacity for a shell,
// so a partition lands one hop out (TestMultiSLRDifferential's board).
func shellU200() *zoomie.Device {
	dev := zoomie.NewU200()
	primary := *dev.SLRs[dev.Primary]
	for i := range primary.Capacity {
		primary.Capacity[i] /= 2
	}
	dev.SLRs[dev.Primary] = &primary
	return dev
}

// restoreDesigns are the designs the restore property runs on: the
// 48-core SoC with its cores enabled, and TestMultiSLRDifferential's
// generated design partitioned onto SLR 2 while the Debug Controller
// stays on the primary.
var restoreDesigns = []struct {
	name  string
	build func() (*zoomie.Design, zoomie.DebugConfig, map[string]uint64)
}{
	{"soc48", func() (*zoomie.Design, zoomie.DebugConfig, map[string]uint64) {
		return workloads.ManycoreSoC(48), zoomie.DebugConfig{Watches: []string{"checksum"}},
			map[string]uint64{"en": 1}
	}},
	{"multislr", func() (*zoomie.Design, zoomie.DebugConfig, map[string]uint64) {
		d := gen.RandomDesign(rand.New(rand.NewSource(7)))
		asserts := gen.RandomAssertions(rand.New(rand.NewSource(8)), d.Outputs, 2)
		return d.RTL, zoomie.DebugConfig{
			Watches:     d.OutputNames(),
			Assertions:  asserts,
			ExtraClocks: d.Clocks[1:],
			Compile: zoomie.CompileOptions{
				Device:     shellU200(),
				Partitions: []zoomie.PartitionSpec{{Name: "user", Paths: []string{"dut"}}},
			},
		}, nil
	}},
}

// simState reads every register and memory of the state map by name
// from the simulator below the cable.
func simState(t *testing.T, sess *zoomie.Session) (map[string]uint64, map[string][]uint64) {
	t.Helper()
	sim := sess.Cable.Board.Sim
	regs := map[string]uint64{}
	mems := map[string][]uint64{}
	for _, r := range sess.Image.Map.Regs {
		v, err := sim.Peek(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		regs[r.Name] = v
	}
	for _, m := range sess.Image.Map.Mems {
		words := make([]uint64, m.Depth)
		for w := range words {
			v, err := sim.PeekMem(m.Name, w)
			if err != nil {
				t.Fatal(err)
			}
			words[w] = v
		}
		mems[m.Name] = words
	}
	return regs, mems
}

// boardFrames reads every frame holding state straight from the board.
func boardFrames(t *testing.T, sess *zoomie.Session) map[[2]int][]uint32 {
	t.Helper()
	out := map[[2]int][]uint32{}
	for slr, fs := range sess.Image.Map.FramesTouched(nil) {
		for _, f := range fs {
			data, err := sess.Cable.Board.ReadFrame(slr, f)
			if err != nil {
				t.Fatal(err)
			}
			out[[2]int{slr, f}] = data
		}
	}
	return out
}

// restoreSnapshotKind derives the snapshot one round restores: the full
// scope, the dut scope, a random register subset, or the full scope with
// random memory words changed (the last word of some memory among them).
func restoreSnapshotKind(sess *zoomie.Session, kind int, full, dut *zoomie.DebugSnapshot, rng *rand.Rand) *zoomie.DebugSnapshot {
	switch kind {
	case 0:
		return full
	case 1:
		return dut
	case 2:
		sub := &zoomie.DebugSnapshot{Cycle: full.Cycle, Regs: map[string]uint64{}, Mems: map[string][]uint64{}}
		for _, r := range sess.Image.Map.Regs {
			if rng.Intn(2) == 0 {
				sub.Regs[r.Name] = full.Regs[r.Name]
			}
		}
		return sub
	}
	snap := &zoomie.DebugSnapshot{Cycle: full.Cycle, Regs: full.Regs, Mems: map[string][]uint64{}}
	for n, w := range full.Mems {
		snap.Mems[n] = slices.Clone(w)
	}
	mems := sess.Image.Map.Mems
	for i := 0; i < 1+rng.Intn(8); i++ {
		m := mems[rng.Intn(len(mems))]
		w := rng.Intn(m.Depth)
		if i == 0 {
			w = m.Depth - 1
		}
		snap.Mems[m.Name][w] = rng.Uint64() & (1<<uint(m.Width) - 1)
	}
	return snap
}

// perturb moves the paused design away from its state: a few cycles
// forward, then random values forced into registers of the user design
// and into a memory word.
func perturb(t *testing.T, sess *zoomie.Session, rng *rand.Rand) {
	t.Helper()
	if err := sess.Step(1 + rng.Intn(16)); err != nil {
		t.Fatal(err)
	}
	var dut []fpga.RegLoc
	for _, r := range sess.Image.Map.Regs {
		if strings.HasPrefix(r.Name, "dut.") {
			dut = append(dut, r)
		}
	}
	for i := 0; i < 4; i++ {
		r := dut[rng.Intn(len(dut))]
		if err := sess.Poke(r.Name, rng.Uint64()&(1<<uint(r.Width)-1)); err != nil {
			t.Fatal(err)
		}
	}
	if mems := sess.Image.Map.Mems; len(mems) > 0 {
		m := mems[rng.Intn(len(mems))]
		if err := sess.PokeMem(m.Name, rng.Intn(m.Depth), rng.Uint64()&(1<<uint(m.Width)-1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestorePathsMatchBoard is the board-truth property of the restore
// core. On each design, over a clean and over a guarded cable that flips
// and drops, seeded rounds restore a snapshot taken before the design
// was moved on: the full scope, the dut scope, a random register subset,
// or memories with random words changed, through Restore, RestoreFrames
// with the mirror diff's frames, Session.RestoreSnapshot and
// RestoreCompatible. After each restore every snapshot value must equal
// the simulator below the cable, and everything outside the snapshot
// must hold its value from before. On the clean cable the frames written
// must be exactly the frames whose bits changed, and for RestoreFrames
// exactly the frames selected.
func TestRestorePathsMatchBoard(t *testing.T) {
	for _, design := range restoreDesigns {
		for _, link := range []struct{ name, chaos string }{
			{"clean", ""},
			{"flipdrop", "flip=0.01,drop=0.25,seed=5"},
		} {
			t.Run(design.name+"/"+link.name, func(t *testing.T) {
				d, cfg, inputs := design.build()
				if link.chaos != "" {
					p, err := zoomie.ParseFaultProfile(link.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = zoomie.NewFaultInjector(p)
				}
				sess, err := zoomie.Debug(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				for n, v := range inputs {
					if err := sess.PokeInput(n, v); err != nil {
						t.Fatal(err)
					}
				}
				sess.Run(100)
				if err := sess.Pause(); err != nil {
					t.Fatal(err)
				}
				runRestoreRounds(t, sess, link.chaos == "", rand.New(rand.NewSource(int64(len(design.name)))))
			})
		}
	}
}

func runRestoreRounds(t *testing.T, sess *zoomie.Session, clean bool, rng *rand.Rand) {
	ctx := context.Background()
	perSLR := map[int]int{} // frames written on the clean cable
	defer func() {
		if clean && len(perSLR) < len(sess.Image.Map.FramesTouched(nil)) {
			t.Errorf("restores wrote frames on SLRs %v; the test needs writes on every SLR holding state", perSLR)
		}
		t.Logf("frames written per SLR: %v", perSLR)
	}()
	paths := []string{"Restore", "RestoreFrames", "RestoreSnapshot", "RestoreCompatible"}
	for round := 0; round < 16; round++ {
		kind, path := round%4, paths[(round/4+round)%4]
		full, err := sess.Snapshot("")
		if err != nil {
			t.Fatal(err)
		}
		dut, err := sess.Snapshot("dut")
		if err != nil {
			t.Fatal(err)
		}
		perturb(t, sess, rng)
		snap := restoreSnapshotKind(sess, kind, full, dut, rng)
		beforeRegs, beforeMems := simState(t, sess)
		beforeFrames := boardFrames(t, sess)

		var log *boardWriteLog
		chain := sess.Cable.Chain
		if clean {
			log = &boardWriteLog{b: sess.Cable.Board}
			sess.Cable.Chain = bitstream.NewChain(log, bitstream.DefaultCostModel())
		}
		var selected map[int][]int
		switch path {
		case "Restore":
			err = sess.Restore(snap)
		case "RestoreFrames":
			regs, words := sess.LiveDiff(snap)
			selected = sess.FramesOf(regs, words)
			err = sess.RestoreFrames(ctx, snap, selected)
		case "RestoreSnapshot":
			err = sess.RestoreSnapshot(ctx, snap)
		case "RestoreCompatible":
			var skipped int
			skipped, err = sess.RestoreCompatible(snap)
			if skipped != 0 {
				t.Errorf("round %d: RestoreCompatible skipped %d entries of a snapshot of this image", round, skipped)
			}
		}
		sess.Cable.Chain = chain
		if err != nil {
			t.Fatalf("round %d: %s: %v", round, path, err)
		}
		where := fmt.Sprintf("round %d (snapshot kind %d, %s)", round, kind, path)

		regs, mems := simState(t, sess)
		for n, want := range beforeRegs {
			if v, ok := snap.Regs[n]; ok {
				want = v
			}
			if regs[n] != want {
				t.Errorf("%s: %s = %#x on the board, want %#x", where, n, regs[n], want)
			}
		}
		for n, want := range beforeMems {
			if v, ok := snap.Mems[n]; ok {
				want = v
			}
			if !slices.Equal(mems[n], want) {
				t.Errorf("%s: memory %s differs from what the restore should leave", where, n)
			}
		}
		if !clean {
			continue
		}
		changed := map[[2]int]bool{}
		for key, data := range boardFrames(t, sess) {
			if !slices.Equal(data, beforeFrames[key]) {
				changed[key] = true
			}
		}
		written := map[[2]int]bool{}
		for _, key := range log.written {
			if written[key] {
				t.Errorf("%s: frame %v written twice", where, key)
			}
			written[key] = true
			perSLR[key[0]]++
		}
		if !maps.Equal(written, changed) {
			t.Errorf("%s: wrote %d frames %v, want exactly the %d whose bits changed %v",
				where, len(written), written, len(changed), changed)
		}
		if selected != nil {
			want := map[[2]int]bool{}
			for slr, fs := range selected {
				for _, f := range fs {
					want[[2]int{slr, f}] = true
				}
			}
			if !maps.Equal(written, want) {
				t.Errorf("%s: wrote frames %v, want exactly the selected %v", where, written, want)
			}
		}
	}
}

// TestRestoreResolveErrors pins the three errors a snapshot that does
// not fit the image raises, on each restore entry point.
func TestRestoreResolveErrors(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	full, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		snap *zoomie.DebugSnapshot
		want string
	}{
		{&zoomie.DebugSnapshot{Regs: map[string]uint64{"dut.nope": 1}},
			`dbg: snapshot register "dut.nope" not in this image`},
		{&zoomie.DebugSnapshot{Mems: map[string][]uint64{"dut.nope": {1}}},
			`dbg: snapshot memory "dut.nope" not in this image`},
		{&zoomie.DebugSnapshot{Mems: map[string][]uint64{"dut.scratch": {1, 2, 3}}},
			`dbg: snapshot memory "dut.scratch" has 3 words, image wants 8`},
	} {
		for path, restore := range map[string]func() error{
			"Restore":         func() error { return sess.Restore(c.snap) },
			"RestoreFrames":   func() error { return sess.RestoreFrames(ctx, c.snap, nil) },
			"RestoreSnapshot": func() error { return sess.RestoreSnapshot(ctx, c.snap) },
		} {
			if err := restore(); err == nil || err.Error() != c.want {
				t.Errorf("%s: error %v, want %q", path, err, c.want)
			}
		}
	}
	after, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(after.Regs, full.Regs) || !maps.EqualFunc(after.Mems, full.Mems, slices.Equal) {
		t.Error("a refused restore changed the board")
	}
}

// historyBlobSHA pins the history blob of TestHistoryBlobPinned's script.
const historyBlobSHA = "167fcb76facf7658f19cf6c9fd11478b9be099d0cf86e42ffc63a6b8c27e29ff"

// TestHistoryBlobPinned runs a seeded script of steps, pokes, saves,
// loads, seeks and rewinds, and pins a SHA-256 of the session's encoded
// history: recording, savestates and their name-keyed encoding must not
// move by a byte. The blob must also survive a decode and re-encode.
func TestHistoryBlobPinned(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var saves []string
	for i := 0; i < 60; i++ {
		var err error
		switch op := rng.Intn(7); {
		case op == 0:
			err = sess.Step(1 + rng.Intn(12))
		case op == 1:
			err = sess.Poke("cnt", uint64(rng.Intn(1<<16)))
		case op == 2:
			err = sess.PokeMem("scratch", rng.Intn(8), uint64(rng.Intn(1<<16)))
		case op == 3:
			name := fmt.Sprintf("s%d", len(saves))
			_, _, _, err = sess.SaveState(name)
			saves = append(saves, name)
		case op == 4 && len(saves) > 0:
			_, err = sess.LoadState(saves[rng.Intn(len(saves))])
		case op == 5:
			var c uint64
			if c, err = sess.Cycles(); err == nil && c > 0 {
				_, err = sess.Seek(uint64(rng.Int63n(int64(c))))
			}
		default:
			var c uint64
			if c, err = sess.Cycles(); err == nil && c > 1 {
				_, _, err = sess.Rewind(uint64(1 + rng.Intn(int(c/2))))
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	blob := sess.EncodeHistory()
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != historyBlobSHA {
		t.Errorf("history blob (%d bytes) SHA-256 %s, want %s", len(blob), got, historyBlobSHA)
	}
	eng, err := history.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := eng.Encode(); !slices.Equal(again, blob) {
		t.Error("decoding and re-encoding the history blob changed it")
	}
}
