package zoomie_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/server"
)

// frameReadLog is a configuration backend that records the address of
// every frame read through it.
type frameReadLog struct {
	bitstream.Backend
	read map[[2]int]bool
}

func (l *frameReadLog) ReadFrame(slr, frame int) ([]uint32, error) {
	l.read[[2]int{slr, frame}] = true
	return l.Backend.ReadFrame(slr, frame)
}

// changedFrames is the oracle for a refresh's read set: the frames
// holding a register or memory word on which two snapshots disagree.
func changedFrames(sess *zoomie.Session, a, b *zoomie.DebugSnapshot) map[[2]int]bool {
	var regs []string
	for n, v := range b.Regs {
		if a.Regs[n] != v {
			regs = append(regs, n)
		}
	}
	words := map[string][]int{}
	for n, ws := range b.Mems {
		for i, w := range ws {
			if a.Mems[n][i] != w {
				words[n] = append(words[n], i)
			}
		}
	}
	out := map[[2]int]bool{}
	for slr, fs := range sess.FramesOf(regs, words) {
		for _, f := range fs {
			out[[2]int{slr, f}] = true
		}
	}
	return out
}

// TestRefreshSnapshotMatchesFullRead is the refresh property: after
// seeded random pokes, memory pokes and steps, a snapshot refreshed from
// the previous one equals a fresh full Snapshot(""), and it reads exactly
// the frames holding state that changed in between that the debugger does
// not already know — on a clean link (counted frame for frame) and on a
// guarded link flipping 1% of the words it moves (as a set, since the
// guard re-reads). Every other refresh follows a clock tick, which leaves
// the paused design as it is but makes every frame unknown, so the
// refresh reads every changed frame; the others read none that a poke
// wrote or a step's pause check read.
func TestRefreshSnapshotMatchesFullRead(t *testing.T) {
	for _, link := range []struct{ name, chaos string }{
		{"clean", ""},
		{"flip1pct", "flip=0.01,seed=11"},
	} {
		t.Run(link.name, func(t *testing.T) {
			var cfg zoomie.DebugConfig
			var inj *zoomie.FaultInjector
			if link.chaos != "" {
				p, err := zoomie.ParseFaultProfile(link.chaos)
				if err != nil {
					t.Fatal(err)
				}
				inj = zoomie.NewFaultInjector(p)
				cfg.Faults = inj
			}
			sess := histSession(t, cfg)
			var log *frameReadLog
			if inj != nil {
				log = &frameReadLog{Backend: inj, read: map[[2]int]bool{}}
				sess.Cable.Chain = bitstream.NewChain(log, bitstream.DefaultCostModel())
			}
			if err := sess.Pause(); err != nil {
				t.Fatal(err)
			}
			base, err := sess.Snapshot("")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(42))
			servedKnown := 0
			for i := 0; i < 40; i++ {
				// Up to three ops between refreshes, so changes accumulate.
				for n := rng.Intn(4); n > 0; n-- {
					var err error
					switch rng.Intn(3) {
					case 0:
						err = sess.Poke("cnt", uint64(rng.Intn(1<<16)))
					case 1:
						err = sess.PokeMem("scratch", rng.Intn(8), uint64(rng.Intn(1<<16)))
					default:
						err = sess.Step(1 + rng.Intn(4))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if i%2 == 1 {
					sess.Run(1)
				}
				known := sess.KnownFrames()
				if i%2 == 1 && len(known) != 0 {
					t.Fatalf("iteration %d: %d frames known after a clock tick, want none", i, len(known))
				}
				var readSet map[[2]int]bool
				if log != nil {
					log.read = map[[2]int]bool{}
					readSet = log.read
				}
				read0 := sess.Cable.Chain.Stats.FramesRead
				got, err := sess.RefreshSnapshot(ctx, base)
				if err != nil {
					t.Fatal(err)
				}
				nRead := sess.Cable.Chain.Stats.FramesRead - read0
				if log != nil {
					log.read = map[[2]int]bool{}
				}
				want, err := sess.Snapshot("")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("iteration %d: refreshed snapshot differs from a full read", i)
				}
				changed := changedFrames(sess, base, want)
				for key := range known {
					if changed[key] {
						delete(changed, key)
						servedKnown++
					}
				}
				if log != nil {
					if !reflect.DeepEqual(readSet, changed) {
						t.Fatalf("iteration %d: refresh read frames %v, want the changed frames not known %v", i, readSet, changed)
					}
				} else if nRead != len(changed) {
					t.Fatalf("iteration %d: refresh read %d frames, want the %d changed and not known", i, nRead, len(changed))
				}
				base = got
			}

			if servedKnown == 0 {
				t.Error("no refresh took a changed frame from the known frames; the test needs some")
			}

			elapsed := sess.Elapsed()
			again, err := sess.RefreshSnapshot(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			if sess.Elapsed() != elapsed {
				t.Errorf("refresh with nothing changed cost %v of cable time, want none", sess.Elapsed()-elapsed)
			}
			if !reflect.DeepEqual(again, base) {
				t.Error("refresh with nothing changed altered the snapshot")
			}
		})
	}
}

// TestRefreshSnapshotFallsBack covers the bases a mirror diff cannot
// serve: a nil base, a session with history off, and a base naming state
// the mirror does not hold all come back equal to a full read.
func TestRefreshSnapshotFallsBack(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []zoomie.DebugConfig{{}, {History: &zoomie.HistoryConfig{Disable: true}}} {
		sess := histSession(t, cfg)
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		base, err := sess.Snapshot("")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Step(3); err != nil {
			t.Fatal(err)
		}
		want, err := sess.Snapshot("")
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]*zoomie.DebugSnapshot{"nil": nil, "stale": base} {
			got, err := sess.RefreshSnapshot(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("history=%v base=%s: refresh differs from a full read", sess.HistoryEnabled(), name)
			}
		}
	}

	// A base value the mirror does not hold is re-read: a register the
	// base lacks, and one it holds under a foreign name.
	sess := histSession(t, zoomie.DebugConfig{})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	want, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	base := &zoomie.DebugSnapshot{Regs: map[string]uint64{"no.such.reg": 1}, Mems: map[string][]uint64{}}
	for n, v := range want.Regs {
		if n != "dut.cnt" {
			base.Regs[n] = v
		}
	}
	for n, w := range want.Mems {
		base.Mems[n] = w
	}
	base.Cycle = want.Cycle
	got, err := sess.RefreshSnapshot(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("refresh of a base with unheld state differs from a full read")
	}
}

// TestMirrorHoldsEveryCatalogState requires the history engine's live
// mirror to hold every register and memory in the state map of every
// catalog design, equal to the board: a full snapshot must show no
// difference against it. A register the mirror did not hold would make
// every refresh fall back to re-reading its frame.
func TestMirrorHoldsEveryCatalogState(t *testing.T) {
	for _, name := range server.CatalogNames() {
		sess, err := server.NewCatalogSession(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := sess.Snapshot("")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(snap.Regs) != len(sess.Image.Map.Regs) || len(snap.Mems) != len(sess.Image.Map.Mems) {
			t.Errorf("%s: snapshot holds %d regs and %d mems, the state map %d and %d",
				name, len(snap.Regs), len(snap.Mems), len(sess.Image.Map.Regs), len(sess.Image.Map.Mems))
		}
		if regs, words := sess.LiveDiff(snap); len(regs) != 0 || len(words) != 0 {
			t.Errorf("%s: mirror does not hold or disagrees on regs %v, memory words %v", name, regs, words)
		}
		sess.Close()
	}
}
