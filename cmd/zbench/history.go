package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"zoomie"
	"zoomie/internal/workloads"
)

// historyExp measures the two costs of time-travel debugging on a modest
// manycore SoC: what recording adds to every tick (the commit hook
// streams committed deltas into the ring), and what a seek back costs as
// a function of distance (nearest keyframe + deterministic forward
// replay, then a write-back of only the frames whose state differs). The
// SoC size is fixed at 48 cores regardless of -cores: this is a tick
// bench, not a synthesis bench. Its en input is driven high so the cores
// run and the seeks cross real state changes.
func historyExp(int) error {
	header("Time-travel history: record overhead per tick and seek latency vs distance")
	const socCores = 48
	const warm, ticks = 256, 8192

	bench := func(hc *zoomie.HistoryConfig) (float64, *zoomie.Session, error) {
		sess, err := zoomie.Debug(workloads.ManycoreSoC(socCores), zoomie.DebugConfig{
			Watches: []string{"checksum"},
			History: hc,
		})
		if err != nil {
			return 0, nil, err
		}
		if err := sess.PokeInput("en", 1); err != nil {
			return 0, nil, err
		}
		sess.Run(warm)
		start := time.Now()
		sess.Run(ticks)
		return float64(ticks) / time.Since(start).Seconds(), sess, nil
	}

	// The overhead is the median of five alternating off/on pairs on
	// fresh sessions, so one run slowed by the host cannot decide the
	// self-check; the rows print the median rates. The last recording
	// session stays open for the seeks below.
	const pairs = 5
	var offRates, onRates, ratios []float64
	var sess *zoomie.Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	for i := 0; i < pairs; i++ {
		offRate, offSess, err := bench(&zoomie.HistoryConfig{Disable: true})
		if err != nil {
			return err
		}
		offSess.Close()
		if sess != nil {
			sess.Close()
		}
		// MaxKeyframes is raised so the horizon covers the longest seek
		// distance below; the keyframe interval (the per-tick cost knob)
		// stays at its default.
		var onRate float64
		if onRate, sess, err = bench(&zoomie.HistoryConfig{MaxKeyframes: 256}); err != nil {
			return err
		}
		offRates = append(offRates, offRate)
		onRates = append(onRates, onRate)
		ratios = append(ratios, offRate/onRate)
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}

	over := median(ratios)
	fmt.Printf("%-44s %12s\n", "configuration (48-core SoC tick bench)", "ticks/s")
	fmt.Printf("%-44s %12.0f\n", "recording off", median(offRates))
	fmt.Printf("%-44s %12.0f\n", "recording on (keyframe every 64)", median(onRates))
	fmt.Printf("recording overhead: %.2fx per tick", over)
	if over < 2 {
		fmt.Printf("   (self-check: < 2x ok)\n")
	} else {
		fmt.Printf("   (self-check FAILED: >= 2x)\n")
	}

	// Seek latency vs distance: pause at the tip, then travel back 10,
	// 100, 1000 and (with more recorded past) nearly 10k cycles. Between
	// timed seeks the cursor returns to the tip untimed, so every
	// measurement is a seek of exactly that distance. Each row also counts
	// the configuration frames the seek read and wrote; the seek to the
	// tip has just written the Debug Controller's frame, so the debugger
	// knows it and the measured seek reads none.
	if err := sess.Pause(); err != nil {
		return err
	}
	tip, err := sess.Cycles()
	if err != nil {
		return err
	}
	stats := &sess.Cable.Chain.Stats
	fmt.Printf("\n%-44s %12s %12s %12s\n", "seek distance (cycles back from tip)", "latency", "frames read", "frames wrote")
	minWrote, maxRead := -1, 0
	for _, dist := range []uint64{10, 100, 1000, 8000} {
		if dist >= tip {
			continue
		}
		if _, err := sess.Seek(tip); err != nil {
			return err
		}
		r0, w0 := stats.FramesRead, stats.FramesWritten
		start := time.Now()
		if _, err := sess.Seek(tip - dist); err != nil {
			return err
		}
		lat := time.Since(start).Round(time.Microsecond)
		read, wrote := stats.FramesRead-r0, stats.FramesWritten-w0
		if minWrote < 0 || wrote < minWrote {
			minWrote = wrote
		}
		maxRead = max(maxRead, read)
		fmt.Printf("%-44d %12s %12d %12d\n", dist, lat, read, wrote)
	}

	// Reference rows: the tip's full-scope state restored onto a freshly
	// configured board. With history off that is a full Restore, which
	// reads back every frame the snapshot touches to find the ones that
	// differ. With history on it goes through the live mirror's diff, as a
	// board swap or fleet import does after adopting history: the
	// snapshot covers every frame the diff selects, so none is read.
	if _, err := sess.Seek(tip); err != nil {
		return err
	}
	snap, err := sess.Snapshot("")
	if err != nil {
		return err
	}
	restoreFresh := func(label string, hc *zoomie.HistoryConfig, restore func(*zoomie.Session) error) (read, wrote int, err error) {
		fresh, err := zoomie.Debug(workloads.ManycoreSoC(socCores), zoomie.DebugConfig{
			Watches: []string{"checksum"},
			History: hc,
		})
		if err != nil {
			return 0, 0, err
		}
		defer fresh.Close()
		fstats := &fresh.Cable.Chain.Stats
		r0, w0 := fstats.FramesRead, fstats.FramesWritten
		start := time.Now()
		if err := restore(fresh); err != nil {
			return 0, 0, err
		}
		read, wrote = fstats.FramesRead-r0, fstats.FramesWritten-w0
		fmt.Printf("%-44s %12s %12d %12d\n", label, time.Since(start).Round(time.Microsecond), read, wrote)
		return read, wrote, nil
	}
	_, fullWrote, err := restoreFresh("full restore onto a fresh board (history off)",
		&zoomie.HistoryConfig{Disable: true},
		func(fresh *zoomie.Session) error { return fresh.Restore(snap) })
	if err != nil {
		return err
	}
	mirrorRead, _, err := restoreFresh("restore through the mirror (history on)", nil,
		func(fresh *zoomie.Session) error { return fresh.RestoreSnapshot(context.Background(), snap) })
	if err != nil {
		return err
	}
	if minWrote >= 0 && minWrote < fullWrote {
		fmt.Printf("self-check: a seek writes fewer frames than the full restore (%d < %d) ok\n", minWrote, fullWrote)
	} else {
		fmt.Printf("self-check FAILED: no seek wrote fewer frames than the full restore (%d)\n", fullWrote)
	}
	if maxRead == 0 {
		fmt.Println("self-check: every seek read 0 frames, the controller frame already known ok")
	} else {
		fmt.Printf("self-check FAILED: a seek read %d frames, want 0 (the controller frame is known)\n", maxRead)
	}
	if mirrorRead == 0 {
		fmt.Println("self-check: the fresh-board restore through the mirror read 0 frames ok")
	} else {
		fmt.Printf("self-check FAILED: the fresh-board restore through the mirror read %d frames\n", mirrorRead)
	}
	fmt.Println("\nseek cost scales with the state that changed: the engine restores the")
	fmt.Println("nearest keyframe at or before the target, replays forward at most one")
	fmt.Println("interval, and writes back only the frames holding a value that differs")
	fmt.Println("from the board's live state, reading back at most the controller frame,")
	fmt.Println("none when the debugger already knows it (DESIGN.md §5).")
	return nil
}
