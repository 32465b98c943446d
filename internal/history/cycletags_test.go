package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"zoomie/internal/dberr"
	"zoomie/internal/sim"
)

// refSkipDeltas advances past one record body without applying it.
func refSkipDeltas(buf []byte, off int) int {
	nr, n := binary.Uvarint(buf[off:])
	off += n
	for i := uint64(0); i < nr*2; i++ {
		_, n := binary.Uvarint(buf[off:])
		off += n
	}
	nm, n := binary.Uvarint(buf[off:])
	off += n
	for i := uint64(0); i < nm*3; i++ {
		_, n := binary.Uvarint(buf[off:])
		off += n
	}
	return off
}

// refSegPosForCycle is the reference cycle lookup within a segment: a
// walk decoding every record, which finds the last position <= upper
// where the cycle tag transitioned to c.
func refSegPosForCycle(seg *segment, c, upper uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	prev := seg.kf.cycle
	if prev == c && seg.startPos <= upper {
		best, found = seg.startPos, true
	}
	cur := seg.startPos
	cyc := seg.kf.cycle
	buf := seg.buf
	off := 0
	for off < len(buf) {
		kind := buf[off]
		off++
		if kind == recTick {
			d, n := binary.Varint(buf[off:])
			off += n
			cur++
			if cur > upper {
				break
			}
			prev = cyc
			cyc = uint64(int64(cyc) + d)
			if cyc == c && prev != c {
				best, found = cur, true
			}
		}
		off = refSkipDeltas(buf, off)
	}
	return best, found
}

// refPosForCycle is PosForCycle over the decoding walk.
func refPosForCycle(e *Engine, c uint64) (uint64, error) {
	upper := e.cursor
	tipCycle := e.cursorCycle()
	if len(e.cursorTL.segs) > 0 {
		if end := e.cursorTL.last().endPos; end > upper {
			upper = end
			if lc := e.cursorTL.last().lastCycle; lc > tipCycle {
				tipCycle = lc
			}
		}
	}
	for t := e.cursorTL; t != nil; t = t.parent {
		for i := len(t.segs) - 1; i >= 0; i-- {
			seg := t.segs[i]
			if seg.startPos > upper || c < seg.minCycle || c > seg.maxCycle {
				continue
			}
			if p, ok := refSegPosForCycle(seg, c, upper); ok {
				return p, nil
			}
		}
		upper = t.forkPos
	}
	if c > tipCycle {
		return 0, dberr.E(dberr.ErrHistoryHorizon,
			"history: cycle %d is ahead of the current cycle %d", c, tipCycle)
	}
	if h := e.horizonCycle(); c < h {
		return 0, dberr.E(dberr.ErrHistoryHorizon,
			"history: cycle %d is before the recorded horizon (cycle %d)", c, h)
	}
	return 0, dberr.E(dberr.ErrHistoryHorizon,
		"history: cycle %d is not in recorded history", c)
}

// checkCycleLookups compares PosForCycle with the reference for every
// cycle any segment holds, and for cycles beyond them.
func checkCycleLookups(t *testing.T, e *Engine, where string) int {
	t.Helper()
	top := uint64(0)
	for _, tl := range e.timelines {
		for _, seg := range tl.segs {
			top = max(top, seg.maxCycle)
		}
	}
	hits := 0
	for c := uint64(0); c <= top+3; c++ {
		got, gerr := e.PosForCycle(c)
		want, werr := refPosForCycle(e, c)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
			t.Fatalf("%s: PosForCycle(%d) = %d, %v; the decoding walk gives %d, %v", where, c, got, gerr, want, werr)
		}
		if gerr != nil && !errors.Is(gerr, dberr.ErrHistoryHorizon) {
			t.Fatalf("%s: PosForCycle(%d) error %v is not ErrHistoryHorizon", where, c, gerr)
		}
		if gerr == nil {
			hits++
		}
	}
	return hits
}

// TestPosForCycleMatchesDecodingWalk is the seeded property of cycle
// lookups: over histories with ticks, host pokes (the cycle register
// included, so cycles jump and repeat), loads of earlier states
// recorded as host writes, seeks that fork timelines, ring eviction and
// timeline GC, PosForCycle must resolve every cycle — and refuse every
// cycle out of reach with the same error — exactly as a walk decoding
// every record does, before and after an Encode/Decode round trip.
func TestPosForCycleMatchesDecodingWalk(t *testing.T) {
	forked, evicted := false, false
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newSim(t)
		e := New(Config{KeyframeEvery: 1 + rng.Intn(8), MaxKeyframes: 3 + rng.Intn(8), MaxTimelines: 2 + rng.Intn(3)})
		e.Attach(s, "cyc")
		s.Poke("en", 1)
		type mark struct {
			pos  uint64
			snap *sim.Snapshot
		}
		var marks []mark
		hits := 0
		for op := 0; op < 80; op++ {
			switch rng.Intn(7) {
			case 0, 1:
				s.Run(1 + rng.Intn(12))
			case 2:
				s.Poke("cnt", uint64(rng.Intn(256)))
			case 3:
				s.Poke("cyc", uint64(rng.Intn(300)))
			case 4:
				pos, _ := e.Cursor()
				marks = append(marks, mark{pos, s.Snapshot("clk")})
			case 5:
				// A load: an earlier state written back with recording on.
				if len(marks) > 0 {
					if err := s.Restore(marks[rng.Intn(len(marks))].snap); err != nil {
						t.Fatal(err)
					}
				}
			default:
				// A seek to a marked position still on the cursor's
				// lineage; the next tick forks.
				if len(marks) == 0 {
					continue
				}
				m := marks[rng.Intn(len(marks))]
				if _, err := e.CycleAt(m.pos); err != nil {
					continue
				}
				e.Suspend(true)
				if err := s.Restore(m.snap); err != nil {
					t.Fatal(err)
				}
				e.Suspend(false)
				e.SeekDone(m.pos)
			}
			if op%8 == 7 {
				hits += checkCycleLookups(t, e, fmt.Sprintf("seed %d op %d", seed, op))
			}
		}
		hits += checkCycleLookups(t, e, fmt.Sprintf("seed %d end", seed))
		if hits == 0 {
			t.Fatalf("seed %d: no cycle resolved", seed)
		}
		forked = forked || len(e.timelines) > 1
		evicted = evicted || e.timelines[0].segs[0].startPos > 0

		e2, err := Decode(e.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.Transplant(newSim(t)); err != nil {
			t.Fatal(err)
		}
		checkCycleLookups(t, e2, fmt.Sprintf("seed %d decoded", seed))
	}
	if !forked || !evicted {
		t.Errorf("forked=%v evicted=%v: the histories need forks and ring eviction", forked, evicted)
	}
}
