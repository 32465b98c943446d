// Package timing performs static timing analysis over a placed and routed
// netlist: longest register-to-register paths under a delay model with
// per-LUT-level logic delay, distance- and congestion-dependent net delay,
// and a heavy penalty for SLR crossings. It reports achievable frequency
// and the top critical paths by endpoint, which lets the evaluation check
// the paper's claim that none of the top-10 paths lie in Zoomie-introduced
// logic (§5.2).
package timing

import (
	"fmt"
	"strings"

	"zoomie/internal/place"
	"zoomie/internal/route"
)

// DelayModel holds the timing constants in nanoseconds.
type DelayModel struct {
	LUTLevelNs   float64 // per LUT level of a cell's logic cone
	NetBaseNs    float64 // fixed per routed edge
	NetPerTileNs float64 // per tile of Manhattan distance
	SLRCrossNs   float64 // per chiplet crossing
	// CongestionK scales the quadratic congestion penalty applied to net
	// delays inside a partition with utilization u: factor 1 + K*u².
	CongestionK float64
	ClockSkewNs float64 // fixed setup margin
}

// DefaultDelayModel returns the UltraScale+-flavoured calibration used
// throughout the evaluation.
func DefaultDelayModel() DelayModel {
	return DelayModel{
		LUTLevelNs:   0.45,
		NetBaseNs:    0.20,
		NetPerTileNs: 0.011,
		SLRCrossNs:   0.80,
		CongestionK:  0.35,
		ClockSkewNs:  0.50,
	}
}

// Path is one timing path summary.
type Path struct {
	Endpoint  string  // cell the path terminates at
	DelayNs   float64 // total path delay
	Startcell string  // cell the dominant arrival came from ("" = input)
}

// Analysis is the result of timing a design.
type Analysis struct {
	CriticalNs float64
	FmaxMHz    float64
	TopPaths   []Path // sorted, worst first (up to 10)
	WorkUnits  int64
}

// topPaths is how many paths an Analysis reports.
const topPaths = 10

// MeetsFrequency reports whether the design closes timing at the given
// clock frequency.
func (a *Analysis) MeetsFrequency(mhz float64) bool {
	period := 1000.0 / mhz
	return a.CriticalNs <= period
}

// Analyze computes the longest paths of the routed design. Arrivals
// propagate over the placement's flat cell table (place.Placement.Cells):
// each routed edge names its producer and consumer by table index.
func Analyze(pl *place.Placement, rt *route.Result, dm DelayModel) (*Analysis, error) {
	cells := pl.Cells
	n := len(cells)
	edges := rt.Edges

	// A net's delay scales with the congestion of its consumer's
	// partition.
	congestion := make([]float64, n)
	part, u := "", pl.Utilization[""]
	for i := range cells {
		if pl.Parts[i] != part {
			part = pl.Parts[i]
			u = pl.Utilization[part]
		}
		congestion[i] = 1 + dm.CongestionK*u*u
	}
	edgeDelay := func(e *route.Edge) float64 {
		d := dm.NetBaseNs + dm.NetPerTileNs*float64(e.Dist) + dm.SLRCrossNs*float64(e.SLRHops)
		return d * congestion[e.Dst]
	}

	// Each cell's fanin edges, in routed order, and each combinational
	// cell's combinational users. State cells are path endpoints: their
	// inputs terminate paths; their outputs launch with arrival 0.
	combinational := make([]bool, n)
	for i := range cells {
		combinational[i] = !cells[i].IsState
	}
	comb := func(i int32) bool { return combinational[i] }
	faninAt, fanin := byCell(n, func(yield func(cell, edge int32)) {
		for k := range edges {
			yield(edges[k].Dst, int32(k))
		}
	})
	indeg := make([]int32, n)
	usersAt, users := byCell(n, func(yield func(cell, user int32)) {
		for k := range edges {
			e := &edges[k]
			if comb(e.Src) && comb(e.Dst) {
				yield(e.Src, e.Dst)
			}
		}
	})
	for _, u := range users {
		indeg[u]++
	}

	an := &Analysis{}
	arrival := make([]float64, n)
	// latest returns the latest arrival over a cell's fanin edges and the
	// producer it came from (-1 = none).
	latest := func(i int32) (float64, int32) {
		best, from := 0.0, int32(-1)
		for _, k := range fanin[faninAt[i]:faninAt[i+1]] {
			e := &edges[k]
			d := edgeDelay(e)
			if comb(e.Src) {
				d += arrival[e.Src]
			} else {
				d += dm.LUTLevelNs // clock-to-out of the launching register
			}
			if d > best {
				best, from = d, e.Src
			}
			an.WorkUnits++
		}
		return best, from
	}

	// arrival(cell) = logicDelay(cell) + max over fanin (arrival + edge),
	// in topological order over combinational cells.
	queue := make([]int32, 0, n)
	combCells := 0
	for i := range cells {
		if comb(int32(i)) {
			combCells++
			if indeg[i] == 0 {
				queue = append(queue, int32(i))
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		best, _ := latest(i)
		arrival[i] = best + dm.LUTLevelNs*float64(cells[i].Levels)
		for _, u := range users[usersAt[i]:usersAt[i+1]] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(queue) != combCells {
		return nil, fmt.Errorf("timing: combinational cycle among %d unprocessed cells", combCells-len(queue))
	}

	// Endpoints: state cells capture; compute their required arrival and
	// keep the worst paths, worst first, ties broken by endpoint name.
	worse := func(a, b Path) bool {
		if a.DelayNs != b.DelayNs {
			return a.DelayNs > b.DelayNs
		}
		return a.Endpoint < b.Endpoint
	}
	var top []Path
	for i := range cells {
		if comb(int32(i)) {
			continue
		}
		worst, from := latest(int32(i))
		if worst == 0 {
			continue
		}
		worst += dm.ClockSkewNs
		p := Path{Endpoint: cells[i].Name, DelayNs: worst, Startcell: cells[from].Name}
		switch {
		case len(top) < topPaths:
			top = append(top, p)
		case worse(p, top[topPaths-1]):
			top[topPaths-1] = p
		default:
			continue
		}
		for k := len(top) - 1; k > 0 && worse(top[k], top[k-1]); k-- {
			top[k], top[k-1] = top[k-1], top[k]
		}
	}
	if len(top) > 0 {
		an.CriticalNs = top[0].DelayNs
		an.FmaxMHz = 1000.0 / an.CriticalNs
	}
	an.TopPaths = top
	return an, nil
}

// byCell groups the values each yields by cell index, keeping each cell's
// values in yield order: cell i's are vals[at[i]:at[i+1]].
func byCell(n int, each func(yield func(cell, v int32))) (at, vals []int32) {
	at = make([]int32, n+1)
	each(func(i, _ int32) { at[i+1]++ })
	for i := 0; i < n; i++ {
		at[i+1] += at[i]
	}
	next := make([]int32, n)
	copy(next, at[:n])
	vals = make([]int32, at[n])
	each(func(i, v int32) {
		vals[next[i]] = v
		next[i]++
	})
	return at, vals
}

// PathsThrough reports how many of the top paths terminate in cells whose
// hierarchical name contains the given substring (e.g. the Debug
// Controller's instance prefix).
func (a *Analysis) PathsThrough(substr string) int {
	n := 0
	for _, p := range a.TopPaths {
		if strings.Contains(p.Endpoint, substr) || strings.Contains(p.Startcell, substr) {
			n++
		}
	}
	return n
}
