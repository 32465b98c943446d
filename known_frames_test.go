package zoomie_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/core"
	"zoomie/internal/faults"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
)

// boardProbe sits between a session's µc chain and its board backend. It
// fails frame writes on demand, as a board wedging partway through a
// writeback does, and counts the reads of each frame since its last
// write, so a test can tell whether a check reached the board.
type boardProbe struct {
	bitstream.Backend
	writesLeft int             // frame writes that still succeed; -1: never fail
	reads      map[[2]int]int  // reads of each frame since it was last written
	written    map[[2]int]bool // frames written since the map was reset
}

func (p *boardProbe) ReadFrame(slr, frame int) ([]uint32, error) {
	p.reads[[2]int{slr, frame}]++
	return p.Backend.ReadFrame(slr, frame)
}

func (p *boardProbe) WriteFrame(slr, frame int, data []uint32) error {
	if p.writesLeft == 0 {
		return faults.ErrWedged
	}
	if p.writesLeft > 0 {
		p.writesLeft--
	}
	p.reads[[2]int{slr, frame}] = 0
	p.written[[2]int{slr, frame}] = true
	return p.Backend.WriteFrame(slr, frame, data)
}

// knownFramesDesign is a counter with six more registers and a 512-word
// memory it writes every cycle, compiled as one VTI partition so the GSR
// mask has a region to select.
func knownFramesDesign() (*zoomie.Design, zoomie.DebugConfig) {
	m := zoomie.NewModule("kf")
	q := m.Output("q", 16)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
	for i := 0; i < 6; i++ {
		r := m.Reg(fmt.Sprintf("r%d", i), 16, "clk", uint64(i))
		m.SetNext(r, zoomie.Add(zoomie.S(r), zoomie.C(uint64(i+1), 16)))
	}
	m.Mem("log", 16, 512).Write("clk", zoomie.Slice(zoomie.S(cnt), 8, 0), zoomie.S(cnt), zoomie.C(1, 1))
	m.Connect(q, zoomie.S(cnt))
	return zoomie.NewDesign("kf", m), zoomie.DebugConfig{
		Watches: []string{"q"},
		Compile: zoomie.CompileOptions{
			Partitions: []zoomie.PartitionSpec{{Name: "user", Paths: []string{"dut"}}},
		},
	}
}

// knownFramesSession debugs knownFramesDesign with the probe spliced in
// below the chain: over a clean cable, or over a guarded one whose
// injector sits between the probe and the board.
func knownFramesSession(t *testing.T, inj *zoomie.FaultInjector) (*zoomie.Session, *boardProbe) {
	t.Helper()
	d, cfg := knownFramesDesign()
	cfg.Faults = inj
	sess, err := zoomie.Debug(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if inj == nil {
		// A fault-free injector is a plain pass-through to the board.
		inj = zoomie.NewFaultInjector(zoomie.FaultProfile{})
		jtag.ConnectWithOptions(sess.Cable.Board, jtag.Options{Faults: inj})
	}
	probe := &boardProbe{Backend: inj, writesLeft: -1, reads: map[[2]int]int{}, written: map[[2]int]bool{}}
	sess.Cable.Chain = bitstream.NewChain(probe, bitstream.DefaultCostModel())
	return sess, probe
}

// checkKnownFrames is the board-truth oracle: every frame the debugger
// would serve from host memory equals the frame read straight from the
// board, below the chain and any injector. It returns how many frames
// the debugger knows.
func checkKnownFrames(t *testing.T, sess *zoomie.Session, step string) int {
	t.Helper()
	known := sess.KnownFrames()
	for key, data := range known {
		want, err := sess.Cable.Board.ReadFrame(key[0], key[1])
		if err != nil {
			t.Fatalf("%s: board read of known frame %v: %v", step, key, err)
		}
		if !slices.Equal(data, want) {
			t.Fatalf("%s: known frame %v differs from the board", step, key)
		}
	}
	return len(known)
}

// partialReconfigure models a VTI partial reconfiguration through the
// raw cable: set the GSR mask to the partition's region, write the
// partition's frames with a new image (zeros), and pulse GSR, which
// resets only the partition's registers. Like hardware, it leaves the
// mask set.
func partialReconfigure(sess *zoomie.Session) error {
	img := sess.Image
	region := img.Regions[0]
	lo, hi := region.FrameRange(img.Device)
	b := bitstream.NewBuilder().Sync().SetGSRMask(0).SelectSLR(img.Device.Hops(region.SLR))
	for _, f := range img.Map.FramesTouched(nil)[region.SLR] {
		if f >= lo && f < hi {
			b.WriteFrames(fpga.FrameWords, f, make([]uint32, fpga.FrameWords))
		}
	}
	_, err := sess.Cable.Execute(b.Sync().StartClock().Words())
	return err
}

// TestKnownFramesMatchBoard drives seeded random op sequences over a
// clean cable and over a guarded one that flips, drops and duplicates
// frames and fails streams. The ops cover every path that reads, writes
// or changes the board: peeks, batches, pokes, steps, runs (the
// debugger's own and the board running on by itself), pause, resume,
// until, snapshot and restore, seek, rewind, savestate and loadstate, a
// VTI partial reconfiguration that leaves the GSR mask set, another
// tool's frame write, GSR pulse or full reconfiguration, and a writeback
// the board fails partway through. After every op each frame
// the debugger knows must equal the board's own frame. On the guarded
// cable every frame a restore writes must also have been re-read from
// the board twice over, by verify-after-write and by the restore's
// semantic re-check, which never take known frames.
func TestKnownFramesMatchBoard(t *testing.T) {
	for _, leg := range []struct {
		name    string
		profile *zoomie.FaultProfile
	}{
		{"clean", nil},
		{"guarded", &zoomie.FaultProfile{Seed: 3, ReadFlip: .005, WriteFlip: .005, Drop: .02, Dup: .02, Exec: .002}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", leg.name, seed), func(t *testing.T) {
				var inj *zoomie.FaultInjector
				if leg.profile != nil {
					p := *leg.profile
					p.Seed += seed
					inj = zoomie.NewFaultInjector(p)
				}
				sess, probe := knownFramesSession(t, inj)
				runKnownFramesOps(t, sess, probe, rand.New(rand.NewSource(seed)), inj != nil)
			})
		}
	}
}

func runKnownFramesOps(t *testing.T, sess *zoomie.Session, probe *boardProbe, rng *rand.Rand, guarded bool) {
	regs := []string{"cnt", "r0", "r1", "r2", "r3", "r4", "r5",
		sess.Meta.Reg(core.RegCycles), sess.Meta.Reg(core.RegPaused)}
	var frames [][2]int
	for slr, fs := range sess.Image.Map.FramesTouched(nil) {
		for _, f := range fs {
			frames = append(frames, [2]int{slr, f})
		}
	}
	slices.SortFunc(frames, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	var snap *zoomie.DebugSnapshot
	var states []string
	seen := map[string]int{}
	for i := 0; i < 400; i++ {
		var op string
		var err error
		restores := false
		switch k := rng.Intn(21); {
		case k < 4:
			op = "peek"
			if rng.Intn(3) == 0 {
				_, err = sess.PeekMem("log", rng.Intn(512))
			} else {
				_, err = sess.Peek(regs[rng.Intn(len(regs))])
			}
		case k < 6:
			op = "peekbatch"
			_, err = sess.PeekBatch(regs[:2+rng.Intn(len(regs)-2)])
		case k < 8:
			op = "poke"
			if rng.Intn(3) == 0 {
				err = sess.PokeMem("log", rng.Intn(512), uint64(rng.Intn(1<<16)))
			} else {
				err = sess.Poke(regs[rng.Intn(7)], uint64(rng.Intn(1<<16)))
			}
		case k < 9:
			op = "step"
			err = sess.Step(1 + rng.Intn(4))
		case k < 10:
			op = "run"
			sess.Run(1 + rng.Intn(30))
		case k < 11:
			op = "freerun"
			sess.Cable.Board.Advance(1 + rng.Intn(30))
		case k < 12:
			op = "pause"
			err = sess.Pause()
		case k < 13:
			op = "resume"
			err = sess.Resume()
		case k < 14:
			op = "until"
			_, err = sess.RunUntilPaused(1 + rng.Intn(128))
		case k < 15:
			op = "snapshot"
			scope := []string{"", "dut"}[rng.Intn(2)]
			snap, err = sess.Snapshot(scope)
		case k < 16:
			op, restores = "restore", true
			if snap != nil {
				err = sess.Restore(snap)
			}
		case k < 17:
			op, restores = "seek", true
			if rng.Intn(2) == 0 {
				_, err = sess.Seek(uint64(rng.Intn(400)))
			} else {
				_, _, err = sess.Rewind(uint64(1 + rng.Intn(30)))
			}
		case k < 18:
			op = "savestate"
			name := fmt.Sprintf("s%d", len(states))
			if _, _, _, err = sess.SaveState(name); err == nil {
				states = append(states, name)
			}
			if len(states) > 0 && rng.Intn(2) == 0 {
				op, restores = "loadstate", true
				_, err = sess.LoadState(states[rng.Intn(len(states))])
			}
		case k < 19:
			op = "vti"
			err = partialReconfigure(sess)
		case k < 20:
			// Another tool on the cable changes the board behind the
			// debugger's back.
			switch rng.Intn(3) {
			case 0:
				// It pulses GSR (keeping the clock running), resetting
				// every register the mask leaves in reach.
				op = "gsr"
				err = sess.Cable.StartClock()
			case 1:
				// It reloads the whole device and restarts the clock
				// without a GSR pulse.
				op = "reconfigure"
				if err = sess.Cable.Board.Configure(sess.Image); err == nil {
					sess.Cable.Board.StartClock()
				}
			default:
				// It rewrites a state frame.
				op = "raw write"
				key := frames[rng.Intn(len(frames))]
				var data [][]uint32
				if data, err = sess.Cable.ReadbackFrames(key[0], []int{key[1]}); err == nil {
					data[0][0] ^= 1
					err = sess.Cable.WritebackFrames(key[0], []int{key[1]}, data)
				}
			}
		default:
			op = "wedged writeback"
			probe.writesLeft = rng.Intn(2)
			names := []string{"cnt", "r1", "r3"}
			vals := []uint64{uint64(rng.Intn(1 << 16)), 1, 2}
			err = sess.PokeBatch(names, vals)
			if snap != nil && rng.Intn(2) == 0 {
				err = sess.Restore(snap)
			}
			probe.writesLeft = -1
		}
		seen[op]++
		step := fmt.Sprintf("op %d (%s, err %v)", i, op, err)
		if checkKnownFrames(t, sess, step) > 0 {
			seen["known"]++
		}
		if guarded && restores && err == nil {
			for key := range probe.written {
				if n := probe.reads[key]; n < 2*3 {
					t.Fatalf("%s: frame %v written by the restore was read %d times since, want verify-after-write and the semantic re-check, 3 each",
						step, key, n)
				}
			}
		}
		clear(probe.written)
	}
	for _, op := range []string{"peek", "poke", "step", "freerun", "snapshot", "restore", "seek", "loadstate", "vti", "gsr", "raw write", "reconfigure", "wedged writeback"} {
		if seen[op] == 0 {
			t.Errorf("the seeded sequence never ran %s", op)
		}
	}
	t.Logf("ops: %v", seen)
}

// TestKnownFramesKeepTheMaskTrap pins the §4.7 trap through known frames.
// A GSR mask left set by partial reconfiguration makes every frame
// outside its region read back as zeros; setting it changes the board,
// so a peek that the debugger could have answered from host memory reads
// the masked zeros instead, and a snapshot clears the mask before it
// trusts any frame. Clearing a mask that is already clear changes
// nothing, and the debugger keeps what it knows.
func TestKnownFramesKeepTheMaskTrap(t *testing.T) {
	sess, _ := knownFramesSession(t, nil)
	sess.Run(50)
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	cycles := sess.Meta.Reg(core.RegCycles)
	want, err := sess.Peek(cycles)
	if err != nil || want == 0 {
		t.Fatalf("cycles = %d, %v; want a running count", want, err)
	}

	known := sess.KnownFrames()
	rb := sess.Cable.Stats().Readbacks
	if err := sess.Cable.ClearGSRMask(); err != nil {
		t.Fatal(err)
	}
	if got, err := sess.Peek(cycles); err != nil || got != want {
		t.Fatalf("cycles after clearing a clear mask = %d, %v; want %d", got, err, want)
	}
	if got := sess.Cable.Stats().Readbacks - rb; got != 0 {
		t.Errorf("clearing a clear mask cost the next peek %d readbacks, want 0", got)
	}
	if after := sess.KnownFrames(); len(after) != len(known) {
		t.Errorf("clearing a clear mask left %d known frames, want the %d before", len(after), len(known))
	}

	loc, _ := sess.Image.Map.Reg(cycles)
	if lo, hi := sess.Image.Regions[0].FrameRange(sess.Image.Device); loc.Addr.SLR == sess.Image.Regions[0].SLR &&
		loc.Addr.Frame >= lo && loc.Addr.Frame < hi {
		t.Fatal("the cycle counter sits inside the partition; the test needs it outside")
	}
	base, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if err := partialReconfigure(sess); err != nil {
		t.Fatal(err)
	}
	if got, err := sess.Peek(cycles); err != nil || got != 0 {
		t.Errorf("cycles on a masked board = %d, %v; want the masked zeros", got, err)
	}
	checkKnownFrames(t, sess, "masked peek")
	// A snapshot of just the cycle counter's frame, which the masked peek
	// left known, must still clear the mask first and read it again.
	snap, err := sess.SnapshotFrames(context.Background(), base, sess.FramesOf([]string{cycles}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cycle != want {
		t.Errorf("snapshot after the mask clear has cycle %d, want %d", snap.Cycle, want)
	}
	if got, err := sess.Peek(cycles); err != nil || got != want {
		t.Errorf("cycles after the snapshot cleared the mask = %d, %v; want %d", got, err, want)
	}
}

// TestPokeInputRefusesState pins that the only host path into design
// state is the frames: PokeInput drives input ports and refuses a
// register, which would otherwise change a frame the debugger knows
// without moving the board's generation.
func TestPokeInputRefusesState(t *testing.T) {
	sess, _ := knownFramesSession(t, nil)
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PokeInput("dut.cnt", before+1); err == nil {
		t.Fatal("PokeInput of a register succeeded")
	}
	checkKnownFrames(t, sess, "refused register poke")
	if err := sess.PokeInput("nosuch", 1); err == nil {
		t.Error("PokeInput of an unknown signal succeeded")
	}
}
