// Package jtag connects Zoomie's host software to an FPGA board: it
// adapts the board model to the bitstream microcontroller chain and
// exposes a Cable with the operations the debugger issues — executing
// configuration streams, reading back frame ranges, and controlling the
// clock. All host/board interaction flows through this package, mirroring
// how everything reaches real hardware through the JTAG port.
//
// The cable is also where link-level resilience lives. A cable is guarded
// exactly when a fault injector is bound: every operation then retries
// transient errors with exponential backoff and jitter under an operation
// deadline, repeats frame readback until every word has been seen
// identically in three consecutive reads (catching in-flight bit flips
// that have no ground truth to checksum against), and CRC32-verifies
// frame writeback against readback, rewriting until it sticks (catching
// flipped, dropped and duplicated writes). Verified readback and
// verify-after-write share one agreement engine. A verified transfer is
// cut into runs of at most maxStreamFrameOps frames, and each convergence
// round of a run is one stream: SYNC, one SLR selection, the writes, then
// as many agreement passes as fit maxStreamFrameOps frame operations. A
// small verified transfer thus selects its SLR once, as §4.7's "scan each
// SLR only once" intends, and no stream is long enough for one transient
// error to void much work. A cable connected without faults runs the
// exact unguarded code paths of the original transport — resilience is
// zero-cost when disabled.
package jtag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zoomie/internal/bitstream"
	"zoomie/internal/faults"
	"zoomie/internal/fpga"
)

// boardBackend adapts *fpga.Board to bitstream.Backend.
type boardBackend struct {
	board *fpga.Board
}

func (b boardBackend) NumSLRs() int    { return len(b.board.Device.SLRs) }
func (b boardBackend) Primary() int    { return b.board.Device.Primary }
func (b boardBackend) FrameWords() int { return fpga.FrameWords }
func (b boardBackend) FramesIn(slr int) int {
	return b.board.Device.SLRs[slr].Frames
}
func (b boardBackend) WriteFrame(slr, frame int, data []uint32) error {
	return b.board.WriteFrame(slr, frame, data)
}
func (b boardBackend) ReadFrame(slr, frame int) ([]uint32, error) {
	return b.board.ReadFrame(slr, frame)
}
func (b boardBackend) IDCode(slr int) uint32 {
	return bitstream.IDCodeFor(b.board.Device.Name, slr)
}

func (b boardBackend) WriteCTL(slr int, v uint32) error {
	// Control writes act device-wide but are only honored when directed at
	// the primary SLR, which commands the others (§4.6).
	if slr != b.board.Device.Primary {
		return fmt.Errorf("jtag: CTL write to secondary SLR %d ignored by hardware", slr)
	}
	if v&bitstream.CtlGSRPulse != 0 {
		b.board.ApplyGSR()
	}
	if v&bitstream.CtlClockRun != 0 {
		b.board.StartClock()
	} else {
		b.board.StopClock()
	}
	return nil
}

func (b boardBackend) WriteMask(slr int, v uint32) error {
	if v == 0 {
		b.board.SetGSRMask(nil)
		return nil
	}
	if !b.board.Configured() {
		return fmt.Errorf("jtag: MASK write before configuration")
	}
	idx := int(v) - 1
	regions := b.board.Image.Regions
	if idx < 0 || idx >= len(regions) {
		return fmt.Errorf("jtag: MASK selects missing region %d", idx)
	}
	r := regions[idx]
	b.board.SetGSRMask(&r)
	return nil
}

// Typed link errors the upper layers classify board failures with.
var (
	// ErrRetriesExhausted wraps the last transient error after the retry
	// budget ran out — the link is flaky beyond what backoff can absorb.
	ErrRetriesExhausted = errors.New("jtag: retries exhausted")
	// ErrDeadline wraps the last error when an operation (including its
	// retries) exceeded the per-operation deadline.
	ErrDeadline = errors.New("jtag: operation deadline exceeded")
	// ErrVerify reports data that could not be read or written cleanly
	// within the retry budget: reads that never agreed Agreement times
	// in a row, or writes whose readback CRC kept mismatching.
	ErrVerify = errors.New("jtag: frame verification failed")
)

// retryPolicy bounds the guarded transport's persistence. Every cable
// starts from defaultRetry; only this package's tests tune it further.
type retryPolicy struct {
	// MaxRetries is the retry budget per logical operation.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; each subsequent retry
	// doubles it up to MaxBackoff, plus up to 50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deadline bounds one logical operation, or one run of a verified
	// transfer, including all retries and verification passes.
	Deadline time.Duration
	// Agreement is the read-verification depth: a word counts as read
	// only after this many consecutive identical observations.
	Agreement int
}

// defaultRetry is the guarded transport's policy: 8 retries, backoff
// from 200µs capped at 10ms, a 10s deadline, and three-deep agreement. At
// per-word flip rate f the chance of the same word corrupting identically
// n times in a row is ~(f/32)^(n-1)·f — at f=1% that is ~3e-6 per word
// for n=2, which a long campaign of coalesced readbacks will eventually
// hit, versus ~1e-9 for n=3.
var defaultRetry = retryPolicy{
	MaxRetries:  8,
	BaseBackoff: 200 * time.Microsecond,
	MaxBackoff:  10 * time.Millisecond,
	Deadline:    10 * time.Second,
	Agreement:   3,
}

// Options configures a cable beyond the default clean transport.
type Options struct {
	// Faults, when set, interposes the injector between the µc chain and
	// the board and enables the guarded transport.
	Faults *faults.Injector
}

// CableStats counts the guarded transport's recovery work. All fields are
// updated with atomics so other goroutines (the server stats path) can
// snapshot them while the owning actor drives the cable.
type CableStats struct {
	Retries     int64 // stream executions retried after transient errors
	ReReads     int64 // frame reads beyond Agreement per frame (recovery from disagreeing reads)
	Rewrites    int64 // frames rewritten after CRC verify-after-write failed
	VerifyFails int64 // operations abandoned with ErrVerify
	Readbacks   int64 // ReadbackFrames calls (logical readback operations)
	Writebacks  int64 // WritebackFrames calls (logical writeback operations)
}

// Cable is the host's handle on the board's configuration port.
type Cable struct {
	Board *fpga.Board
	Chain *bitstream.Chain

	guard bool
	retry retryPolicy

	jmu  sync.Mutex // guards jrng (jitter only; never on the clean path)
	jrng *rand.Rand

	retries     int64 // atomic
	reReads     int64 // atomic
	rewrites    int64 // atomic
	verifyFails int64 // atomic
	readbacks   int64 // atomic
	writebacks  int64 // atomic
}

// Connect attaches a cable to a board using the clean (unguarded)
// transport.
func Connect(board *fpga.Board) *Cable {
	return ConnectWithOptions(board, Options{})
}

// ConnectWithOptions attaches a cable whose µc chain runs on the default
// configuration-plane cost model, guarded exactly when opts binds a fault
// injector.
func ConnectWithOptions(board *fpga.Board, opts Options) *Cable {
	var backend bitstream.Backend = boardBackend{board}
	seed := int64(1)
	if opts.Faults != nil {
		backend = opts.Faults.Bind(backend)
		seed = opts.Faults.Profile().Seed + 1
	}
	return &Cable{
		Board: board,
		Chain: bitstream.NewChain(backend, bitstream.DefaultCostModel()),
		guard: opts.Faults != nil,
		retry: defaultRetry,
		jrng:  rand.New(rand.NewSource(seed)),
	}
}

// Guarded reports whether the resilient transport is active.
func (c *Cable) Guarded() bool { return c.guard }

// Stats snapshots the recovery counters. Safe to call from any goroutine.
func (c *Cable) Stats() CableStats {
	return CableStats{
		Retries:     atomic.LoadInt64(&c.retries),
		ReReads:     atomic.LoadInt64(&c.reReads),
		Rewrites:    atomic.LoadInt64(&c.rewrites),
		VerifyFails: atomic.LoadInt64(&c.verifyFails),
		Readbacks:   atomic.LoadInt64(&c.readbacks),
		Writebacks:  atomic.LoadInt64(&c.writebacks),
	}
}

// Execute runs a configuration stream through the µc chain. Under guard,
// transient link errors are retried with exponential backoff and jitter
// up to the retry budget and operation deadline; wedged-board errors fail
// fast so the caller can quarantine.
func (c *Cable) Execute(stream []uint32) ([]uint32, error) {
	return c.ExecuteCtx(context.Background(), stream)
}

// ExecuteCtx is Execute under a context: cancellation interrupts both the
// stream interpretation (between frames of a coalesced read or write) and
// the guarded transport's backoff sleeps, returning ctx.Err() promptly.
func (c *Cable) ExecuteCtx(ctx context.Context, stream []uint32) ([]uint32, error) {
	if !c.guard {
		return c.Chain.ExecuteCtx(ctx, stream)
	}
	return c.executeGuarded(ctx, stream, time.Now().Add(c.retry.Deadline))
}

// executeGuarded retries transient failures of one stream execution.
func (c *Cable) executeGuarded(ctx context.Context, stream []uint32, deadline time.Time) ([]uint32, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		out, err := c.Chain.ExecuteCtx(ctx, stream)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err() // cancelled mid-stream: do not retry
		}
		if errors.Is(err, faults.ErrWedged) {
			return nil, err // retrying a wedged board is pointless
		}
		if !errors.Is(err, faults.ErrTransient) {
			return nil, err // structural error: deterministic, do not retry
		}
		lastErr = err
		if attempt >= c.retry.MaxRetries {
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, lastErr)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: %v", ErrDeadline, lastErr)
		}
		atomic.AddInt64(&c.retries, 1)
		if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
			return nil, err
		}
	}
}

// sleepCtx sleeps for d or until the context is cancelled, whichever
// comes first — the ctx-aware replacement for time.Sleep in retry loops.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d) // no cancellation possible; skip the timer machinery
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the sleep before retry attempt+1: exponential from
// BaseBackoff, capped at MaxBackoff, plus up to 50% seeded jitter so
// concurrent sessions retrying against one chassis don't stampede.
func (c *Cable) backoff(attempt int) time.Duration {
	d := c.retry.BaseBackoff << uint(attempt)
	if d > c.retry.MaxBackoff || d <= 0 {
		d = c.retry.MaxBackoff
	}
	c.jmu.Lock()
	j := time.Duration(c.jrng.Int63n(int64(d)/2 + 1))
	c.jmu.Unlock()
	return d + j
}

// maxStreamFrameOps bounds the frame operations (frame writes plus frame
// reads) that one guarded stream carries. A verified transfer packs each
// convergence round into one stream, so it pays SYNC and its SLR's BOUT
// selection once per round instead of once per agreement pass. The bound
// exists because one transient error voids the whole stream: the longer
// the stream, the likelier a retry and the more that retry re-executes.
// The optimum sits near √(selection cost / (frame cost × transient rate)):
// at exec=0.0025 about 50 frame ops for an SLR two hops from the primary
// and about 35 one hop out, where a selection costs 10 or 5 ms. On the
// primary, where placement puts the debugged state when it has room, a
// selection costs nothing and the bound matters little: at exec=0.0025
// bounds from 8 to 128 stayed within 3.6% of each other, 64 within 3.3%
// of the best (DESIGN.md §5, "One SLR selection per verified transfer").
// A verified transfer is cut into runs of at most this many frames, so no
// single pass or write exceeds it.
const maxStreamFrameOps = 64

// inRuns calls fn on [lo, hi) for consecutive runs of [0, n) of at most
// maxStreamFrameOps positions each, in order, until fn fails.
func inRuns(n int, fn func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += maxStreamFrameOps {
		if err := fn(lo, min(lo+maxStreamFrameOps, n)); err != nil {
			return err
		}
	}
	return nil
}

// transferStream builds one configuration stream for one SLR: SYNC, one
// BOUT selection, the write of data[i] to each frames[i], then one FDRO
// pass per entry of reads. Writes and reads alike merge runs of
// consecutive addresses into one multi-frame WCFG + FAR + FDRI or RCFG +
// FAR + FDRO group — the SLR-aware optimization of §4.7.
func (c *Cable) transferStream(slr int, frames []int, data [][]uint32, reads ...[]int) []uint32 {
	b := bitstream.NewBuilder().Sync().SelectSLR(c.Board.Device.Hops(slr))
	runs(frames, func(i, n int) { b.WriteFrames(fpga.FrameWords, frames[i], data[i:i+n]...) })
	for _, pass := range reads {
		runs(pass, func(i, n int) { b.ReadFrames(fpga.FrameWords, pass[i], n) })
	}
	return b.Words()
}

// runs calls fn with the position and length of each maximal run of
// consecutive addresses in frames, in order.
func runs(frames []int, fn func(i, n int)) {
	for i := 0; i < len(frames); {
		n := 1
		for i+n < len(frames) && frames[i+n] == frames[i]+n {
			n++
		}
		fn(i, n)
		i += n
	}
}

// readbackOnce executes one readback pass and splits the payload.
func (c *Cable) readbackOnce(ctx context.Context, slr int, frames []int, deadline time.Time) ([][]uint32, error) {
	stream := c.transferStream(slr, nil, nil, frames)
	var words []uint32
	var err error
	if c.guard {
		words, err = c.executeGuarded(ctx, stream, deadline)
	} else {
		words, err = c.Chain.ExecuteCtx(ctx, stream)
	}
	if err != nil {
		return nil, err
	}
	if len(words) != len(frames)*fpga.FrameWords {
		return nil, fmt.Errorf("jtag: readback returned %d words, want %d",
			len(words), len(frames)*fpga.FrameWords)
	}
	out := make([][]uint32, len(frames))
	for i := range out {
		out[i] = words[i*fpga.FrameWords : (i+1)*fpga.FrameWords]
	}
	return out, nil
}

// ReadbackFrames reads the given frame addresses of one SLR, returning
// frame contents in the same order. It issues one BOUT selection for the
// SLR and coalesces runs of consecutive addresses into single multi-frame
// FDRO reads — the SLR-aware optimization of §4.7 ("scan each SLR only
// once", "only the regions that contain the MUT"). Under guard the read
// is verified: see verifiedTransfer, which reads each run of at most
// maxStreamFrameOps frames in turn.
func (c *Cable) ReadbackFrames(slr int, frames []int) ([][]uint32, error) {
	return c.ReadbackFramesCtx(context.Background(), slr, frames)
}

// ReadbackFramesCtx is ReadbackFrames under a context: cancellation
// aborts the coalesced read between frames and interrupts any guard
// retries, returning ctx.Err().
func (c *Cable) ReadbackFramesCtx(ctx context.Context, slr int, frames []int) ([][]uint32, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	// An already-cancelled operation never reaches the cable, so it does
	// not count as a logical readback.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	atomic.AddInt64(&c.readbacks, 1)
	if !c.guard {
		return c.readbackOnce(ctx, slr, frames, time.Time{})
	}
	out := make([][]uint32, 0, len(frames))
	err := inRuns(len(frames), func(lo, hi int) error {
		got, err := c.verifiedTransfer(ctx, slr, frames[lo:hi], nil)
		out = append(out, got...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// verifyBudget bounds the verification loops. It is deliberately larger
// than the transient-retry budget: at a 1% per-word flip rate a 93-word
// frame reads or writes cleanly only ~39% of the time, so whole-frame
// success needs more attempts than a per-operation transient does.
func (c *Cable) verifyBudget() int { return 4 * c.retry.MaxRetries }

// agreement is the per-word read verification state of one frame set: a
// word is confirmed once it has been observed identically in agree
// consecutive reads of its frame, and a frame once all its words are.
type agreement struct {
	agree   int
	last    [][]uint32 // latest observation of each frame (nil before the first)
	out     [][]uint32 // confirmed words
	streak  [][]int    // consecutive identical observations per word; agree = confirmed
	left    []int      // unconfirmed words per frame
	reads   []int      // observations of each frame so far
	pending []int      // positions of the frames with unconfirmed words, in order
}

func newAgreement(n, agree int) *agreement {
	a := &agreement{
		agree:   agree,
		last:    make([][]uint32, n),
		out:     make([][]uint32, n),
		streak:  make([][]int, n),
		left:    make([]int, n),
		reads:   make([]int, n),
		pending: make([]int, n),
	}
	for p := range a.pending {
		a.out[p] = make([]uint32, fpga.FrameWords)
		a.streak[p] = make([]int, fpga.FrameWords)
		a.left[p] = fpga.FrameWords
		a.pending[p] = p
	}
	return a
}

// need returns how many more reads of frame p a clean continuation needs
// to confirm all its words: the least advanced word decides.
func (a *agreement) need(p int) int {
	least := a.agree
	for _, s := range a.streak[p] {
		least = min(least, s)
	}
	return a.agree - least
}

// plan lays out the read passes of the next stream as frame positions.
// Pass k reads every pending frame that still needs more than k reads,
// capped by what is left of its maxReads observation budget, so no frame
// is read speculatively. It takes as many passes as fit room frame
// operations.
func (a *agreement) plan(room, maxReads int) [][]int {
	want := make([]int, len(a.pending))
	deepest := 0
	for i, p := range a.pending {
		want[i] = min(a.need(p), maxReads-a.reads[p])
		deepest = max(deepest, want[i])
	}
	var passes [][]int
	for k := 0; k < deepest; k++ {
		var pass []int
		for i, p := range a.pending {
			if want[i] > k {
				pass = append(pass, p)
			}
		}
		if len(pass) > room {
			break
		}
		room -= len(pass)
		passes = append(passes, pass)
	}
	return passes
}

// observe feeds one stream's read payload, pass by pass and frame by
// frame, through the per-word agreement, drops confirmed frames from the
// pending set, and returns how many of the reads went beyond agree reads
// of their frame — the recovery work, zero on a clean link.
func (a *agreement) observe(passes [][]int, words []uint32) (extra int64) {
	for _, pass := range passes {
		for _, p := range pass {
			cur := words[:fpga.FrameWords]
			words = words[fpga.FrameWords:]
			if a.reads[p]++; a.reads[p] > a.agree {
				extra++
			}
			for w, v := range cur {
				s := a.streak[p][w]
				if s >= a.agree {
					continue
				}
				if s > 0 && v == a.last[p][w] {
					s++
				} else {
					s = 1
				}
				a.streak[p][w] = s
				if s == a.agree {
					a.out[p][w] = v
					a.left[p]--
				}
			}
			a.last[p] = cur
		}
	}
	still := a.pending[:0]
	for _, p := range a.pending {
		if a.left[p] > 0 {
			still = append(still, p)
		}
	}
	a.pending = still
	return extra
}

// verifiedTransfer is the guarded transport's agreement engine, shared by
// verified readback and verify-after-write, for a run of at most
// maxStreamFrameOps frames. With data set it first writes data[i] to each
// frames[i]; then it reads the frames until every word has been observed
// identically in retry.Agreement consecutive reads, and returns the agreed
// contents.
//
// A read has no ground truth to checksum against, so agreement between
// independent reads is the integrity criterion — and it is applied per
// word, not per frame: an in-flight flip would have to corrupt the same
// word the same way on every read of the streak to slip through, while
// demanding fully clean 93-word frames would almost never converge at
// percent-level flip rates. Confirmed frames drop out of the re-read set;
// only the unconfirmed subset goes back on the wire. The design is
// quiesced during readback (the configuration plane owns the clock), so
// words confirmed by different read streaks belong to one consistent
// frame.
//
// Each convergence round is one stream: SYNC, one SLR selection, the
// writes (first round only), and as many agreement passes of the
// still-pending frames as plan fits in maxStreamFrameOps, each frame read
// only as often as a clean continuation needs to confirm it. A set of up
// to maxStreamFrameOps / Agreement frames therefore reads back in one
// stream on a clean link.
func (c *Cable) verifiedTransfer(ctx context.Context, slr int, frames []int, data [][]uint32) ([][]uint32, error) {
	deadline := time.Now().Add(c.retry.Deadline)
	a := newAgreement(len(frames), c.retry.Agreement)
	// A frame is read at most this often: the first read, the mandatory
	// second, and verifyBudget more.
	maxReads := c.verifyBudget() + 2
	for round := 0; len(a.pending) > 0; round++ {
		if round > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, p := range a.pending {
				if a.reads[p] >= maxReads {
					atomic.AddInt64(&c.verifyFails, 1)
					return nil, fmt.Errorf("%w: %d frames of SLR %d never fully agreed across consecutive reads",
						ErrVerify, len(a.pending), slr)
				}
			}
			if time.Now().After(deadline) {
				atomic.AddInt64(&c.verifyFails, 1)
				return nil, fmt.Errorf("%w: read verification of SLR %d", ErrDeadline, slr)
			}
		}
		var wf []int
		var wd [][]uint32
		room := maxStreamFrameOps
		if round == 0 && data != nil {
			wf, wd = frames, data
			room -= len(frames)
		}
		passes := a.plan(room, maxReads)
		reads := make([][]int, len(passes))
		n := 0
		for k, pass := range passes {
			reads[k] = make([]int, len(pass))
			for i, p := range pass {
				reads[k][i] = frames[p]
			}
			n += len(pass)
		}
		words, err := c.executeGuarded(ctx, c.transferStream(slr, wf, wd, reads...), deadline)
		if err != nil {
			return nil, err
		}
		if len(words) != n*fpga.FrameWords {
			return nil, fmt.Errorf("jtag: readback returned %d words, want %d", len(words), n*fpga.FrameWords)
		}
		atomic.AddInt64(&c.reReads, a.observe(passes, words))
	}
	return a.out, nil
}

// WritebackFrames writes the given frames of one SLR (partial
// reconfiguration), each run of consecutive addresses as one multi-frame
// FDRI write. Under guard every frame is verified after write: the
// CRC32 of the data handed to the cable is compared against the CRC32 of
// the frame read back, and mismatching frames are rewritten until they
// stick or the retry budget runs out. This is what keeps flipped,
// dropped and duplicated writes from silently poisoning design state.
// The frames are written and verified in runs of at most
// maxStreamFrameOps, each run to completion before the next. Each write
// attempt of a run is one verified transfer: the writes open the first
// stream and the verifying agreement passes fill it up to
// maxStreamFrameOps, so a small writeback selects its SLR once.
func (c *Cable) WritebackFrames(slr int, frames []int, data [][]uint32) error {
	return c.WritebackFramesCtx(context.Background(), slr, frames, data)
}

// WritebackFramesCtx is WritebackFrames under a context: cancellation
// aborts the write between frames and interrupts the verify-after-write
// loop, returning ctx.Err().
func (c *Cable) WritebackFramesCtx(ctx context.Context, slr int, frames []int, data [][]uint32) error {
	if len(frames) != len(data) {
		return fmt.Errorf("jtag: %d frame addresses but %d frames", len(frames), len(data))
	}
	if len(frames) == 0 {
		return nil
	}
	// As in ReadbackFramesCtx: cancelled before the cable, not counted.
	if err := ctx.Err(); err != nil {
		return err
	}
	atomic.AddInt64(&c.writebacks, 1)
	if !c.guard {
		_, err := c.Chain.ExecuteCtx(ctx, c.transferStream(slr, frames, data))
		return err
	}
	return inRuns(len(frames), func(lo, hi int) error {
		return c.verifiedWrite(ctx, slr, frames[lo:hi], data[lo:hi])
	})
}

// verifiedWrite writes a run of at most maxStreamFrameOps frames and
// rewrites the frames whose readback CRC mismatches until every frame
// sticks or the budget runs out.
func (c *Cable) verifiedWrite(ctx context.Context, slr int, frames []int, data [][]uint32) error {
	deadline := time.Now().Add(c.retry.Deadline)
	wantCRC := make([]uint32, len(frames))
	for i := range data {
		wantCRC[i] = fpga.FrameCRC(data[i])
	}
	pendF, pendD, pendCRC := frames, data, wantCRC
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		readback, err := c.verifiedTransfer(ctx, slr, pendF, pendD)
		if err != nil {
			return err
		}
		var badF []int
		var badD [][]uint32
		var badCRC []uint32
		for i := range pendF {
			if fpga.FrameCRC(readback[i]) != pendCRC[i] {
				badF = append(badF, pendF[i])
				badD = append(badD, pendD[i])
				badCRC = append(badCRC, pendCRC[i])
			}
		}
		if len(badF) == 0 {
			return nil
		}
		if attempt >= c.verifyBudget() {
			atomic.AddInt64(&c.verifyFails, 1)
			return fmt.Errorf("%w: %d frames of SLR %d failed CRC verify-after-write",
				ErrVerify, len(badF), slr)
		}
		if time.Now().After(deadline) {
			atomic.AddInt64(&c.verifyFails, 1)
			return fmt.Errorf("%w: write verification of SLR %d", ErrDeadline, slr)
		}
		atomic.AddInt64(&c.rewrites, int64(len(badF)))
		pendF, pendD, pendCRC = badF, badD, badCRC
	}
}

// StartClock starts the global clock (and pulses GSR) through the primary
// SLR's control register.
func (c *Cable) StartClock() error {
	_, err := c.Execute(bitstream.NewBuilder().Sync().StartClock().Words())
	return err
}

// StopClock halts the global clock.
func (c *Cable) StopClock() error {
	_, err := c.Execute(bitstream.NewBuilder().Sync().StopClock().Words())
	return err
}

// ClearGSRMask clears the GSR mask register (issued before readback).
func (c *Cable) ClearGSRMask() error {
	_, err := c.Execute(bitstream.NewBuilder().Sync().ClearGSRMask().Words())
	return err
}

// Probe is the health check: it reads back one frame of the primary SLR
// through the full transport. A flaky-but-alive board passes (transients
// are retried away); a wedged board fails fast with faults.ErrWedged, so
// the server's prober catches it within one probe interval. No design
// state is touched. (An IDCODE read would not do: identity queries are
// shape passthroughs that bypass the fault seam entirely.)
func (c *Cable) Probe() error {
	return c.ProbeCtx(context.Background())
}

// ProbeCtx is Probe under a context.
func (c *Cable) ProbeCtx(ctx context.Context) error {
	_, err := c.readbackOnce(ctx, c.Board.Device.Primary, []int{0}, time.Now().Add(c.retry.Deadline))
	return err
}

// Elapsed returns the modeled configuration-plane time accumulated so far.
func (c *Cable) Elapsed() time.Duration { return c.Chain.Elapsed }

// ResetStats clears accumulated timing and counters.
func (c *Cable) ResetStats() { c.Chain.ResetStats() }
