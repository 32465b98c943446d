package faults

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// memBackend is a trivial in-memory Backend: one SLR, n frames of 4 words.
type memBackend struct {
	frames     map[int][]uint32
	writeCount map[int]int
}

func newMemBackend(n int) *memBackend {
	m := &memBackend{frames: make(map[int][]uint32), writeCount: make(map[int]int)}
	for i := 0; i < n; i++ {
		m.frames[i] = []uint32{uint32(i), uint32(i) * 3, 0xDEAD0000 | uint32(i), 7}
	}
	return m
}

func (m *memBackend) NumSLRs() int          { return 1 }
func (m *memBackend) Primary() int          { return 0 }
func (m *memBackend) FrameWords() int       { return 4 }
func (m *memBackend) FramesIn(slr int) int  { return len(m.frames) }
func (m *memBackend) IDCode(slr int) uint32 { return 0x1234 }
func (m *memBackend) WriteCTL(slr int, v uint32) error {
	return nil
}
func (m *memBackend) WriteMask(slr int, v uint32) error { return nil }
func (m *memBackend) ReadFrame(slr, frame int) ([]uint32, error) {
	return append([]uint32(nil), m.frames[frame]...), nil
}
func (m *memBackend) WriteFrame(slr, frame int, data []uint32) error {
	m.frames[frame] = append([]uint32(nil), data...)
	m.writeCount[frame]++
	return nil
}

func bind(t *testing.T, p Profile, nFrames int) (*Injector, *memBackend) {
	t.Helper()
	mb := newMemBackend(nFrames)
	in := New(p)
	in.Bind(mb)
	return in, mb
}

func TestFaultModels(t *testing.T) {
	const rounds = 2000
	cases := []struct {
		name    string
		profile Profile
		run     func(t *testing.T, in *Injector, mb *memBackend)
	}{
		{
			name:    "clean profile injects nothing",
			profile: Profile{Seed: 1},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				for i := 0; i < rounds; i++ {
					data, err := in.ReadFrame(0, i%8)
					if err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
					want, _ := mb.ReadFrame(0, i%8)
					for w := range data {
						if data[w] != want[w] {
							t.Fatalf("clean read corrupted frame %d word %d", i%8, w)
						}
					}
				}
				if got := in.Stats().Total(); got != 0 {
					t.Fatalf("clean profile injected %d faults", got)
				}
			},
		},
		{
			name:    "read bit flips",
			profile: Profile{Seed: 2, ReadFlip: 0.05},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				var corrupted int
				for i := 0; i < rounds; i++ {
					data, err := in.ReadFrame(0, i%8)
					if err != nil {
						t.Fatal(err)
					}
					want := mb.frames[i%8]
					for w := range data {
						if d := data[w] ^ want[w]; d != 0 {
							corrupted++
							if d&(d-1) != 0 {
								t.Fatalf("flip changed more than one bit: %#x", d)
							}
						}
					}
				}
				st := in.Stats()
				if st.ReadFlips == 0 || int64(corrupted) != st.ReadFlips {
					t.Fatalf("observed %d corrupted words, stats say %d", corrupted, st.ReadFlips)
				}
				// The board itself was never touched.
				if mb.frames[0][0] != 0 {
					t.Fatal("read flip mutated board state")
				}
			},
		},
		{
			name:    "write bit flips reach the board",
			profile: Profile{Seed: 3, WriteFlip: 0.05},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				payload := []uint32{0xAAAA5555, 0, 0xFFFFFFFF, 1}
				var corrupted int
				for i := 0; i < rounds; i++ {
					f := i % 8
					if err := in.WriteFrame(0, f, payload); err != nil {
						t.Fatal(err)
					}
					for w, v := range mb.frames[f] {
						if v != payload[w] {
							corrupted++
						}
					}
				}
				if st := in.Stats(); st.WriteFlips == 0 || corrupted == 0 {
					t.Fatalf("write flips: stats %d, observed %d", st.WriteFlips, corrupted)
				}
			},
		},
		{
			name:    "dropped writes leave old state",
			profile: Profile{Seed: 4, Drop: 0.2},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				payload := []uint32{9, 9, 9, 9}
				var kept int
				for i := 0; i < rounds; i++ {
					f := i % 8
					before := append([]uint32(nil), mb.frames[f]...)
					if err := in.WriteFrame(0, f, payload); err != nil {
						t.Fatal(err)
					}
					if mb.frames[f][0] == before[0] && before[0] != 9 {
						kept++
					}
				}
				st := in.Stats()
				if st.Drops == 0 {
					t.Fatal("no writes dropped at 20% drop rate")
				}
				// Every drop must have left the previous contents intact the
				// first time each frame was written.
				if kept == 0 {
					t.Fatal("drops recorded but every frame shows the new data")
				}
			},
		},
		{
			name:    "duplicated writes apply twice",
			profile: Profile{Seed: 5, Dup: 0.25},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				payload := []uint32{1, 2, 3, 4}
				for i := 0; i < rounds; i++ {
					if err := in.WriteFrame(0, i%8, payload); err != nil {
						t.Fatal(err)
					}
				}
				st := in.Stats()
				if st.Dups == 0 {
					t.Fatal("no duplicated writes at 25% dup rate")
				}
				var total int
				for _, n := range mb.writeCount {
					total += n
				}
				if int64(total) != int64(rounds)+st.Dups {
					t.Fatalf("board saw %d writes, want %d + %d dups", total, rounds, st.Dups)
				}
			},
		},
		{
			name:    "transient exec errors",
			profile: Profile{Seed: 6, Exec: 0.1},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				var failed int
				for i := 0; i < rounds; i++ {
					_, err := in.ReadFrame(0, i%8)
					if err != nil {
						if !errors.Is(err, ErrTransient) {
							t.Fatalf("exec error is not ErrTransient: %v", err)
						}
						failed++
					}
				}
				st := in.Stats()
				if st.ExecErrors == 0 || int64(failed) != st.ExecErrors {
					t.Fatalf("observed %d failures, stats say %d", failed, st.ExecErrors)
				}
				if failed == rounds {
					t.Fatal("every op failed at a 10% transient rate")
				}
			},
		},
		{
			name:    "latency spikes stall but succeed",
			profile: Profile{Seed: 7, Latency: 0.5, Spike: time.Microsecond},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				for i := 0; i < 200; i++ {
					if _, err := in.ReadFrame(0, i%8); err != nil {
						t.Fatal(err)
					}
				}
				if in.Stats().Spikes == 0 {
					t.Fatal("no latency spikes at 50% rate")
				}
			},
		},
		{
			name:    "wedge after N ops",
			profile: Profile{Seed: 8, WedgeAfter: 50},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				for i := 0; i < 50; i++ {
					if _, err := in.ReadFrame(0, i%8); err != nil {
						t.Fatalf("op %d failed before the wedge point: %v", i, err)
					}
				}
				if in.Wedged() {
					t.Fatal("wedged before exceeding WedgeAfter")
				}
				for i := 0; i < 10; i++ {
					if _, err := in.ReadFrame(0, 0); !errors.Is(err, ErrWedged) {
						t.Fatalf("post-wedge op returned %v, want ErrWedged", err)
					}
				}
				if !in.Wedged() || in.Stats().WedgedCalls != 10 {
					t.Fatalf("wedged=%v calls=%d, want true/10", in.Wedged(), in.Stats().WedgedCalls)
				}
			},
		},
		{
			name:    "manual wedge",
			profile: Profile{Seed: 9},
			run: func(t *testing.T, in *Injector, mb *memBackend) {
				if _, err := in.ReadFrame(0, 0); err != nil {
					t.Fatal(err)
				}
				in.Wedge()
				if err := in.WriteCTL(0, 1); !errors.Is(err, ErrWedged) {
					t.Fatalf("CTL write on wedged board: %v", err)
				}
				if err := in.WriteMask(0, 0); !errors.Is(err, ErrWedged) {
					t.Fatalf("MASK write on wedged board: %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, mb := bind(t, tc.profile, 8)
			tc.run(t, in, mb)
		})
	}
}

// TestDeterminism replays the same op sequence under the same seed and
// demands identical fault patterns — the property every chaos test leans
// on for reproducibility.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) ([]uint32, Stats) {
		in, mb := bind(t, Profile{Seed: seed, ReadFlip: 0.03, WriteFlip: 0.02, Drop: 0.05, Dup: 0.05, Exec: 0.02}, 8)
		var trace []uint32
		payload := []uint32{0x1111, 0x2222, 0x3333, 0x4444}
		for i := 0; i < 500; i++ {
			f := i % 8
			if i%3 == 0 {
				in.WriteFrame(0, f, payload)
			}
			if data, err := in.ReadFrame(0, f); err == nil {
				trace = append(trace, data...)
			} else {
				trace = append(trace, 0xEEEEEEEE)
			}
			_ = mb
		}
		return trace, in.Stats()
	}
	t1, s1 := run(42)
	t2, s2 := run(42)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %#x vs %#x", i, t1[i], t2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	t3, _ := run(43)
	same := len(t1) == len(t3)
	if same {
		same = true
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// TestCorruptDrawSequence pins where seeded read flips land: per word, one
// uniform roll and, on a flip, one bit index, drawn from the profile's
// seeded source in that order. Reading a frame under one lock must not
// move a single fault of a seeded run.
func TestCorruptDrawSequence(t *testing.T) {
	const rate = 0.3
	in, mb := bind(t, Profile{Seed: 11, ReadFlip: rate}, 8)
	ref := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		f := i % 8
		got, err := in.ReadFrame(0, f)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]uint32(nil), mb.frames[f]...)
		for w := range want {
			if ref.Float64() < rate {
				want[w] ^= 1 << uint(ref.Intn(32))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d of frame %d: %#x, the seeded draw sequence gives %#x", i, f, got, want)
		}
	}
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		in      string
		want    Profile
		wantErr bool
	}{
		{in: "", want: Profile{}},
		{in: "flip=0.01,seed=42", want: Profile{ReadFlip: 0.01, WriteFlip: 0.01, Seed: 42}},
		{in: "readflip=0.02,writeflip=0.03", want: Profile{ReadFlip: 0.02, WriteFlip: 0.03}},
		{in: "drop=0.005, dup=0.001, exec=0.002", want: Profile{Drop: 0.005, Dup: 0.001, Exec: 0.002}},
		{in: "latency=0.1,spike=5ms", want: Profile{Latency: 0.1, Spike: 5 * time.Millisecond}},
		{in: "wedge=500", want: Profile{WedgeAfter: 500}},
		{in: "flip=2", wantErr: true},
		{in: "flip=-0.1", wantErr: true},
		{in: "bogus=1", wantErr: true},
		{in: "flip", wantErr: true},
		{in: "spike=fast", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseProfile(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseProfile(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseProfile(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	// Round trip through String.
	p := Profile{ReadFlip: 0.01, WriteFlip: 0.01, Drop: 0.005, Seed: 7}
	back, err := ParseProfile(p.String())
	if err != nil || back != p {
		t.Errorf("round trip %q -> %+v (err %v), want %+v", p.String(), back, err, p)
	}
}
