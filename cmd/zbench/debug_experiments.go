package main

import (
	"fmt"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

// table3 reproduces Table 3: SLR-aware readback time vs the unoptimized
// full-SLR scan, per SLR of a U200.
//
// The MUT window size comes from the real VTI placement at full scale
// (the reserved region of a cluster-pair partition); the scan itself runs
// end to end through the bitstream/JTAG machinery against a configured
// board, so the times are the cost model applied to real frame traffic.
func table3(cores int) error {
	header("Table 3: Readback time per SLR, optimized vs unoptimized (seconds)")

	// Size the MUT region with a real placement at full scale.
	net, err := synth.Synthesize(workloads.ManycoreSoC(cores))
	if err != nil {
		return err
	}
	specs := []place.PartitionSpec{{
		Name:  "mut",
		Paths: []string{workloads.ClusterPath(0), workloads.ClusterPath(1)},
	}}
	pl, err := place.Place(net, fpga.NewU200(), specs)
	if err != nil {
		return err
	}
	lo, hi := pl.Regions["mut"][0].FrameRange(fpga.NewU200())
	mutFrames := hi - lo
	fmt.Printf("MUT region (two clusters, VTI placement at %d cores): %d frames\n\n", cores, mutFrames)

	// Execute the scans on a configured board.
	sess, err := zoomie.Debug(smallCounterDesign(), zoomie.DebugConfig{})
	if err != nil {
		return err
	}
	cable := sess.Cable
	dev := cable.Board.Device

	fmt.Printf("%-22s %10s %10s %10s\n", "", "SLR 0", "SLR 1", "SLR 2")
	var opt, naive [3]float64
	for slr := 0; slr < 3; slr++ {
		frames := make([]int, mutFrames)
		for i := range frames {
			frames[i] = lo + i
		}
		cable.ResetStats()
		if _, err := cable.ReadbackFrames(slr, frames); err != nil {
			return err
		}
		opt[slr] = cable.Elapsed().Seconds()

		all := make([]int, dev.SLRs[slr].Frames)
		for i := range all {
			all[i] = i
		}
		cable.ResetStats()
		if _, err := cable.ReadbackFrames(slr, all); err != nil {
			return err
		}
		naive[slr] = cable.Elapsed().Seconds()
	}
	fmt.Printf("%-22s %9.3fs %9.3fs %9.3fs\n", "Zoomie", opt[0], opt[1], opt[2])
	fmt.Printf("%-22s %9.3fs %9.3fs %9.3fs\n", "Unoptimized Zoomie", naive[0], naive[1], naive[2])
	fmt.Printf("%-22s %9.3fs %9.3fs %9.3fs   (SLR1 is primary: fewest ring hops)\n", "paper: Zoomie", 0.397, 0.384, 0.392)
	fmt.Printf("%-22s %9.3fs %9.3fs %9.3fs\n", "paper: Unoptimized", 33.594, 33.560, 33.593)
	fmt.Printf("\naverage speedup: %.0fx (paper: ~80x)\n",
		(naive[0]+naive[1]+naive[2])/(opt[0]+opt[1]+opt[2]))
	return nil
}

func smallCounterDesign() *zoomie.Design {
	m := zoomie.NewModule("probe_counter")
	q := m.Output("q", 16)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
	m.Connect(q, zoomie.S(cnt))
	return zoomie.NewDesign("probe_counter", m)
}

// bout reproduces the §4.4/§4.5 reverse-engineering validation: BOUT ring
// hops select SLRs, the U250's last SLR needs three pulses, and IDCODE
// mutation on secondary SLRs is inert.
func bout(int) error {
	header("§4.5 Hypothesis validation: the BOUT register and the SLR ring")

	run := func(dev *fpga.Device) error {
		n := len(dev.SLRs)
		design := workloads.ProbeDesign(n)
		flat, err := rtl.Elaborate(design)
		if err != nil {
			return err
		}
		sm := fpga.NewStateMap(0, 0)
		for i := 0; i < n; i++ {
			if err := sm.AddReg(fpga.RegLoc{
				Name: fmt.Sprintf("probe%d", i), Width: 16,
				Addr: fpga.BitAddr{SLR: i, Frame: 11, Bit: 0},
			}); err != nil {
				return err
			}
		}
		board := fpga.NewBoard(dev)
		if err := board.Configure(&fpga.Image{
			Design: flat,
			Clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
			Map:    sm,
			Device: dev,
		}); err != nil {
			return err
		}
		cable := jtag.Connect(board)

		fmt.Printf("\n%s (%d SLRs, primary SLR %d):\n", dev.Name, n, dev.Primary)
		fmt.Println("  reading frame 11 with k BOUT pulses:")
		for hops := 0; hops < n; hops++ {
			b := bitstream.NewBuilder().Sync().SelectSLR(hops).
				ReadFrames(fpga.FrameWords, 11, 1)
			out, err := cable.Execute(b.Words())
			if err != nil {
				return err
			}
			got := uint64(out[0] & 0xffff)
			slr := cable.Chain.Target()
			fmt.Printf("    %d pulse(s) -> SLR %d, value %#06x (SLR %d's constant: %#06x)\n",
				hops, slr, got, slr, workloads.ProbeConstant(slr))
		}

		// IDCODE mutation on a secondary SLR: inert.
		b := bitstream.NewBuilder().Sync().SelectSLR(1).
			WriteReg(bitstream.RegIDCODE, 0xBADC0DE).
			ReadFrames(fpga.FrameWords, 11, 1)
		out, err := cable.Execute(b.Words())
		if err != nil {
			return err
		}
		fmt.Printf("  bogus IDCODE written to a secondary SLR: readback still %#06x (inert)\n",
			out[0]&0xffff)

		// IDCODE on the primary is verified.
		b = bitstream.NewBuilder().Sync().WriteReg(bitstream.RegIDCODE, 0xBADC0DE)
		if _, err := cable.Execute(b.Words()); err != nil {
			fmt.Printf("  bogus IDCODE on the primary SLR: rejected (%v)\n", err)
		} else {
			fmt.Println("  bogus IDCODE on the primary SLR: UNEXPECTEDLY accepted")
		}
		return nil
	}
	if err := run(fpga.NewU200()); err != nil {
		return err
	}
	if err := run(fpga.NewU250()); err != nil {
		return err
	}
	fmt.Println("\nconclusion: empty BOUT writes (plus padding) steer the configuration")
	fmt.Println("ring one hop per pulse; device IDs play no role in SLR selection.")
	return nil
}

// debugSession builds a full debug session for a case study.
func debugSession(design *zoomie.Design, cfg zoomie.DebugConfig) (*zoomie.Session, error) {
	return zoomie.Debug(design, cfg)
}
