// Package route connects placed cells: every fanin of every cell that
// another cell drives becomes a routed edge with a Manhattan wirelength
// and an SLR-crossing count. Congestion enters the timing model through
// each partition's utilization (place.Placement.Utilization), which is
// how tightly packed partitions (small over-provisioning coefficients)
// pay slower nets — the area/timing trade-off of §3.5.
package route

import (
	"fmt"

	"zoomie/internal/place"
)

// Edge is one routed source->sink connection. Src and Dst index the
// producer and consumer in the placement's flat cell table
// (place.Placement.Cells), where their names and tiles are.
type Edge struct {
	Src, Dst int32
	Dist     int // Manhattan tile distance
	SLRHops  int // chiplet crossings
}

// Work returns the routing work units an edge costs: one, plus one per
// 16 tiles it spans.
func (e Edge) Work() int64 { return int64(1 + e.Dist/16) }

// Result is the routed design.
type Result struct {
	// Edges lists the routed edges consumer by consumer in flat-table
	// order, each consumer's in the order of its drivers, so every cell's
	// fanin edges form one contiguous run. Hooks must keep that order:
	// timing.Analyze refuses edges not grouped by consumer.
	Edges []Edge

	TotalWirelength int64
	SLRCrossings    int
	WorkUnits       int64
}

// Hook observes — and may mutate — a finished routing result before it
// is returned. The toolchain self-checker uses it to model router bugs
// such as dropped route segments (see Result.DropEdge).
type Hook func(r *Result)

// Route routes all cell fanins of the placed netlist, consumer by
// consumer in flat-table order. Fanins no cell drives are skipped; they
// are chip IOs. Trailing hooks, if any, run in order on the finished
// result.
func Route(pl *place.Placement, hooks ...Hook) (*Result, error) {
	cells, tiles := pl.Cells, pl.Tiles
	if len(tiles) != len(cells) {
		return nil, fmt.Errorf("route: placement locates %d of %d cells", len(tiles), len(cells))
	}
	edges := 0
	for i := range cells {
		edges += len(cells[i].Drivers)
	}
	r := &Result{Edges: make([]Edge, 0, edges)}
	for i := range cells {
		toPos := tiles[i]
		for _, d := range cells[i].Drivers {
			fromPos := tiles[d]
			e := Edge{
				Src: d, Dst: int32(i),
				Dist:    abs(fromPos.Row-toPos.Row) + abs(fromPos.Col-toPos.Col),
				SLRHops: abs(fromPos.SLR - toPos.SLR),
			}
			r.Edges = append(r.Edges, e)
			r.TotalWirelength += int64(e.Dist)
			r.SLRCrossings += e.SLRHops
			r.WorkUnits += e.Work()
		}
	}
	for _, h := range hooks {
		h(r)
	}
	return r, nil
}

// DropEdge removes the i-th routed edge together with its wirelength,
// crossing and work accounting, keeping the other edges in order.
func (r *Result) DropEdge(i int) {
	if i < 0 || i >= len(r.Edges) {
		return
	}
	e := r.Edges[i]
	r.Edges = append(r.Edges[:i], r.Edges[i+1:]...)
	r.TotalWirelength -= int64(e.Dist)
	r.SLRCrossings -= e.SLRHops
	r.WorkUnits -= e.Work()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
