package history

import "testing"

// FuzzHistoryDecode hardens the import path: whenever Decode and
// Transplant accept a blob, reconstructing every recorded position, the
// status and timeline views that walk lineages, and recording further
// ticks must return without panicking or looping. Seeds are a recorded engine with a branch and a
// savestate, and the blobs of TestDecodeRejectsRecordsOutsideLayout.
func FuzzHistoryDecode(f *testing.F) {
	s := newSim(f)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	record(f, s, e, 40)
	if _, err := e.SaveNamed("mark"); err != nil {
		f.Fatal(err)
	}
	e.Suspend(true)
	v, err := e.StateAt(20)
	if err != nil {
		f.Fatal(err)
	}
	for k, d := range e.regOf {
		s.Poke(e.slots[d].Name, v.Regs[k])
	}
	e.Suspend(false)
	e.SeekDone(20)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	f.Add(e.Encode())
	for _, rec := range [][]byte{{1, 0xe8, 0x07, 5, 0}, {0, 1, 7, 0, 5}, {0, 1, 0, 0x80, 8, 5}} {
		f.Add(hostileBlob(f, rec))
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := Decode(blob)
		if err != nil {
			return
		}
		s := newSim(t)
		if err := e.Transplant(s); err != nil {
			return
		}
		for _, tl := range e.timelines {
			for _, seg := range tl.segs {
				for pos := seg.startPos; pos <= seg.endPos; pos++ {
					e.reconstruct(tl, pos)
				}
			}
		}
		e.Stat()
		e.TimelineList()
		// Recording goes on from the imported cursor, forking if it is
		// behind the tip.
		for i := 0; i < 3; i++ {
			s.Tick()
		}
	})
}
