package zoomie

import "zoomie/internal/history"

// CheckHistoryMirror exposes the history engine's live-mirror check to
// the external tests.
func (s *Session) CheckHistoryMirror() error { return s.hist.CheckMirror() }

// LiveDiff exposes the history engine's diff of a snapshot against its
// live mirror to the external tests.
func (s *Session) LiveDiff(snap *DebugSnapshot) (regs []string, words map[string][]int) {
	d := s.hist.LiveDiff(snap.Regs, snap.Mems)
	return d.Regs, d.Words
}

// HistoryEngine exposes the session's history engine to the external
// tests.
func (s *Session) HistoryEngine() *history.Engine { return s.hist }
