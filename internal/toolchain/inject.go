package toolchain

import (
	"zoomie/internal/place"
	"zoomie/internal/route"
	"zoomie/internal/synth"
)

// Inject carries seeded fault hooks into the toolchain passes. It exists
// for the toolchain self-checker (internal/check/synthcheck): a mutation
// campaign sets exactly one hook per compile and asserts the differential
// equivalence oracle notices. A nil Inject — the production case — leaves
// every pass untouched.
//
// Inject lives here rather than in the pass packages because toolchain is
// the lowest layer that already imports synth, place and route together;
// vti and farm thread it through Options without new dependencies.
type Inject struct {
	// Synth is installed as the netlist hook of every compile's synthesis
	// cache; it fires on every store miss and may corrupt the freshly
	// mapped cells.
	Synth synth.NetlistHook
	// Place runs on every finished placement (initial and incremental).
	Place place.Hook
	// Route runs on every finished routing result.
	Route route.Hook
	// Store, when non-nil, replaces the compile's private checkpoint
	// store — a wrapper returning stale netlists models a broken digest
	// lookup. Ignored when the caller supplies its own store (the farm
	// path injects there via farm.Config.Store instead).
	Store synth.Store
}

// PlaceHooks returns the placement hooks this compile should run.
func (o Options) PlaceHooks() []place.Hook {
	if o.Inject == nil || o.Inject.Place == nil {
		return nil
	}
	return []place.Hook{o.Inject.Place}
}

// RouteHooks returns the routing hooks this compile should run.
func (o Options) RouteHooks() []route.Hook {
	if o.Inject == nil || o.Inject.Route == nil {
		return nil
	}
	return []route.Hook{o.Inject.Route}
}
