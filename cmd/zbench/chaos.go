package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
	"zoomie/internal/workloads"
)

// chaos measures what transport resilience costs: the same
// pause/peek/poke/step/resume workload driven through cables that
// corrupt reads and writes at increasing per-word fault rates. The
// guarded transport re-reads frames until consecutive reads agree and
// verifies every write by CRC, so the workload's answers stay exact at
// every rate — the table shows what that certainty costs in modeled
// cable time and recovery work. Rate 0 runs the plain unguarded path,
// the proof that resilience is zero-cost when off.
func chaos(int) error {
	header("Chaos: retry/verify overhead vs injected fault rate (counter design)")
	rates := []float64{0, 0.001, 0.005, 0.01, 0.02}
	const rounds = 30

	fmt.Printf("%-10s %6s %9s %10s %10s %8s %9s %9s %9s %8s %10s\n",
		"fault rate", "ops", "wall ms", "cable ms", "streams/op", "hops/op",
		"retries", "rereads", "rewrites", "faults", "overhead")
	var baseCable time.Duration
	for _, rate := range rates {
		var inj *zoomie.FaultInjector
		sess, err := server.NewCatalogSessionWith("counter", func(cfg *zoomie.DebugConfig) {
			if rate > 0 {
				inj = zoomie.NewFaultInjector(zoomie.FaultProfile{
					Seed: 42, ReadFlip: rate, WriteFlip: rate, Exec: rate / 2,
				})
				cfg.Faults = inj
			}
		})
		if err != nil {
			return err
		}

		ops := 0
		start := time.Now()
		for i := 0; i < rounds; i++ {
			sess.Run(5)
			if err := sess.Pause(); err != nil {
				return fmt.Errorf("rate %g round %d: pause: %w", rate, i, err)
			}
			want := uint64(i*7 + 1)
			if err := sess.Poke("cnt", want); err != nil {
				return fmt.Errorf("rate %g round %d: poke: %w", rate, i, err)
			}
			if got, err := sess.Peek("cnt"); err != nil {
				return fmt.Errorf("rate %g round %d: peek: %w", rate, i, err)
			} else if got != want {
				return fmt.Errorf("rate %g round %d: CORRUPTED READ: cnt=%d want %d", rate, i, got, want)
			}
			if err := sess.Step(2); err != nil {
				return fmt.Errorf("rate %g round %d: step: %w", rate, i, err)
			}
			if got, err := sess.Peek("cnt"); err != nil {
				return fmt.Errorf("rate %g round %d: peek: %w", rate, i, err)
			} else if got != want+2 {
				return fmt.Errorf("rate %g round %d: CORRUPTED READ after step: cnt=%d want %d", rate, i, got, want+2)
			}
			if err := sess.Resume(); err != nil {
				return fmt.Errorf("rate %g round %d: resume: %w", rate, i, err)
			}
			ops += 6
		}
		wall := time.Since(start)
		cable := sess.Elapsed()
		cs, ch := sess.Cable.Stats(), sess.Cable.Chain.Stats
		var injected int64
		if inj != nil {
			injected = inj.Stats().Total()
		}
		over := "baseline"
		if rate == 0 {
			baseCable = cable
		} else if baseCable > 0 {
			over = fmt.Sprintf("+%.1f%%", 100*(float64(cable)/float64(baseCable)-1))
		}
		fmt.Printf("%-10g %6d %9.1f %10.1f %10.2f %8.2f %9d %9d %9d %8d %10s\n",
			rate, ops, float64(wall.Microseconds())/1000,
			float64(cable.Microseconds())/1000,
			float64(ch.Streams)/float64(ops), float64(ch.Hops)/float64(ops),
			cs.Retries, cs.ReReads, cs.Rewrites, injected, over)
		sess.Close()
	}
	fmt.Println("\nevery peek above was value-checked: the guarded transport let zero")
	fmt.Println("corrupted words through at any fault rate; overhead is the modeled")
	fmt.Println("cable time of agreement reads, CRC-verify rewrites, and transient")
	fmt.Println("retries. streams/op and hops/op count SYNC words and BOUT ring hops")
	fmt.Println("(each hop costs 5 ms); rereads are reads beyond the agreement depth.")
	return captureCost()
}

// captureCost measures the known-good snapshot a daemon takes after every
// mutating command while a fault injector is bound, on the 48-core SoC
// with en high over a flip=0.005 link: a full re-read of the design's
// state against a refresh that re-reads only the frames whose state
// changed since the previous capture. The mutating commands follow a
// 20-op debug mix of peeks, batched peeks, pokes and steps; its 2 pokes
// of a random register and 2 steps of 1-4 cycles per block are what
// trigger captures (peeks change nothing). Each method runs the same
// script on a session of its own, so neither reads through frames the
// other has just fetched; either reads no frame the debugger knows.
func captureCost() error {
	const socCores, blocks, perBlock = 48, 10, 20
	p, err := zoomie.ParseFaultProfile("flip=0.005,seed=1")
	if err != nil {
		return err
	}
	type cost struct {
		frames int
		cable  time.Duration
	}
	// run drives the script on a fresh session, taking a capture after
	// every mutating op, and returns the captures and their cost.
	run := func(capture func(sess *zoomie.Session, prev *zoomie.DebugSnapshot) (*zoomie.DebugSnapshot, error)) ([]*zoomie.DebugSnapshot, cost, error) {
		var c cost
		sess, err := zoomie.Debug(workloads.ManycoreSoC(socCores), zoomie.DebugConfig{
			Faults: zoomie.NewFaultInjector(p),
		})
		if err != nil {
			return nil, c, err
		}
		defer sess.Close()
		if err := sess.PokeInput("en", 1); err != nil {
			return nil, c, err
		}
		if err := sess.Pause(); err != nil {
			return nil, c, err
		}
		var regs []string
		for _, r := range sess.Image.Map.Regs {
			if strings.HasPrefix(r.Name, dbg.DutPrefix+".") {
				regs = append(regs, r.Name)
			}
		}
		prev, err := sess.Snapshot("")
		if err != nil {
			return nil, c, err
		}
		rng := rand.New(rand.NewSource(1))
		var snaps []*zoomie.DebugSnapshot
		for i := 0; i < 4*blocks; i++ {
			if i%2 == 0 {
				reg := regs[rng.Intn(len(regs))]
				loc, _ := sess.Image.Map.Reg(reg)
				v := rng.Uint64()
				if loc.Width < 64 {
					v &= 1<<uint(loc.Width) - 1
				}
				err = sess.Poke(reg, v)
			} else {
				err = sess.Step(1 + rng.Intn(4))
			}
			if err != nil {
				return nil, c, err
			}
			r0, t0 := sess.Cable.Chain.Stats.FramesRead, sess.Elapsed()
			if prev, err = capture(sess, prev); err != nil {
				return nil, c, err
			}
			c.frames += sess.Cable.Chain.Stats.FramesRead - r0
			c.cable += sess.Elapsed() - t0
			snaps = append(snaps, prev)
		}
		return snaps, c, nil
	}
	wants, full, err := run(func(sess *zoomie.Session, _ *zoomie.DebugSnapshot) (*zoomie.DebugSnapshot, error) {
		return sess.Snapshot("")
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	gots, refreshed, err := run(func(sess *zoomie.Session, prev *zoomie.DebugSnapshot) (*zoomie.DebugSnapshot, error) {
		return sess.RefreshSnapshot(ctx, prev)
	})
	if err != nil {
		return err
	}
	captures, mismatches := len(wants), 0
	for i, want := range wants {
		if !reflect.DeepEqual(gots[i], want) {
			mismatches++
		}
	}

	fmt.Printf("\nKnown-good capture after each mutating op: %d-core SoC (en high), link %s\n", socCores, p)
	fmt.Printf("%d-op debug mix with 4 mutating ops per block; %d captures\n", perBlock, captures)
	fmt.Printf("%-28s %14s %16s %14s\n", "capture", "frames read", "modeled ms", "frames read")
	fmt.Printf("%-28s %14s %16s %14s\n", "", "per capture", "per capture", "per op")
	row := func(name string, c cost) {
		perCapture := float64(c.frames) / float64(captures)
		fmt.Printf("%-28s %14.1f %16.1f %14.1f\n", name, perCapture,
			float64(c.cable.Microseconds())/1000/float64(captures), perCapture*4/perBlock)
	}
	row("full re-read", full)
	row("refreshed by mirror diff", refreshed)
	if mismatches == 0 {
		fmt.Println("self-check: every refreshed capture equals the full re-read ok")
	} else {
		fmt.Printf("self-check FAILED: %d refreshed captures differ from the full re-read\n", mismatches)
	}
	return nil
}
