package zoomie

import "zoomie/internal/history"

// CheckHistoryMirror exposes the history engine's live-mirror check to
// the external tests.
func (s *Session) CheckHistoryMirror() error { return s.hist.CheckMirror() }

// LiveDiff exposes the history engine's diff of a snapshot against its
// live mirror to the external tests, by name: the registers and, per
// memory, the word addresses whose values differ.
func (s *Session) LiveDiff(snap *DebugSnapshot) (regs []string, words map[string][]int) {
	v, _, _ := s.Resolve(snap, false)
	ri, wi := s.hist.LiveDiff(v.Regs, v.Held, v.Mems)
	for _, i := range ri {
		regs = append(regs, s.Image.Map.Regs[i].Name)
	}
	words = map[string][]int{}
	for j, ws := range wi {
		if len(ws) > 0 {
			words[s.Image.Map.Mems[j].Name] = ws
		}
	}
	return regs, words
}

// HistoryEngine exposes the session's history engine to the external
// tests.
func (s *Session) HistoryEngine() *history.Engine { return s.hist }
