package zoomie

// CheckHistoryMirror exposes the history engine's live-mirror check to
// the external tests.
func (s *Session) CheckHistoryMirror() error { return s.hist.CheckMirror() }
