package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"zoomie"
	"zoomie/internal/history"
	"zoomie/internal/wire"
)

// Session state export/import: the wire transport behind cross-daemon
// failover. OpStateExport (session-scoped, handled on the actor) returns
// the session's full-scope snapshot plus its encoded history engine as a
// base64 blob chunked into Response.Lines; OpStateImport (connection-
// level, like attach) builds a brand-new session from those chunks —
// lease a board, adopt the history, restore the snapshot — exactly the
// in-daemon migration path, lifted across the wire.

// exportBlob is the JSON envelope inside an export blob. The snapshot is
// the full-scope DebugSnapshot (user design + Debug Controller
// registers); History is the history.Encode blob, nil when the session
// records no history.
type exportBlob struct {
	Snapshot *zoomie.DebugSnapshot `json:"snapshot"`
	History  []byte                `json:"history,omitempty"`
}

// exportChunk bounds one Lines entry. The whole response must still fit
// a wire frame (8 MiB), which bounds total exportable state; the modeled
// designs sit far below it.
const exportChunk = 256 << 10

// maxExportBytes refuses exports that could not travel in one frame,
// leaving headroom for the response envelope.
const maxExportBytes = 6 << 20

func encodeExport(snap *zoomie.DebugSnapshot, hist []byte) ([]string, error) {
	data, err := json.Marshal(exportBlob{Snapshot: snap, History: hist})
	if err != nil {
		return nil, err
	}
	b64 := base64.StdEncoding.EncodeToString(data)
	if len(b64) > maxExportBytes {
		return nil, fmt.Errorf("session state too large to export (%d bytes encoded, max %d)", len(b64), maxExportBytes)
	}
	var lines []string
	for len(b64) > exportChunk {
		lines = append(lines, b64[:exportChunk])
		b64 = b64[exportChunk:]
	}
	return append(lines, b64), nil
}

func decodeExport(chunks []string) (*exportBlob, error) {
	data, err := base64.StdEncoding.DecodeString(strings.Join(chunks, ""))
	if err != nil {
		return nil, fmt.Errorf("state blob is not base64: %v", err)
	}
	var blob exportBlob
	if err := json.Unmarshal(data, &blob); err != nil {
		return nil, fmt.Errorf("state blob does not parse: %v", err)
	}
	if blob.Snapshot == nil {
		return nil, fmt.Errorf("state blob carries no snapshot")
	}
	return &blob, nil
}

// importAttach is attach-with-state: build a fresh session for the
// design, transplant the decoded history engine, restore the exported
// snapshot (full scope — breakpoints and pause state land armed), then
// register and answer exactly like a plain attach. Runs on the calling
// connection's read loop, like attach.
func (s *Server) importAttach(c *conn, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if s.isClosed() {
		resp.Err = wire.Errf(wire.CodeShutdown, "server shutting down")
		return resp
	}
	name := req.Design
	if _, ok := Catalog()[name]; !ok {
		resp.Err = wire.Errf(wire.CodeUnknownDesign, "unknown design %q (have: %v)", name, CatalogNames())
		return resp
	}
	if !s.allowed(name) {
		resp.Err = wire.Errf(wire.CodeForbidden, "design %q not served (allowlist: %v)", name, s.cfg.Allow)
		return resp
	}
	blob, err := decodeExport(req.Signals)
	if err != nil {
		resp.Err = wire.Errf(wire.CodeBadRequest, "import: %v", err)
		return resp
	}
	var hist *history.Engine
	if len(blob.History) > 0 {
		if hist, err = history.Decode(blob.History); err != nil {
			resp.Err = wire.Errf(wire.CodeBadRequest, "import: %v", err)
			return resp
		}
	}
	zs, ilaMeta, inj, lease, err := s.newSessionFor(name)
	if err != nil {
		code := wire.CodeOp
		if errors.Is(err, ErrPoolExhausted) {
			code = wire.CodePoolExhausted
		}
		resp.Err = wire.Errf(code, "%s", err)
		return resp
	}
	// Adopt before restore, so the engine's live mirror tracks the
	// restore and diffs it — identical to the in-daemon migration
	// ordering. A layout mismatch forfeits history but not the import.
	if hist != nil {
		if aerr := zs.AdoptHistory(hist); aerr != nil {
			s.cfg.Logf("zoomied: import: history not transplanted: %v", aerr)
		}
	}
	if rerr := zs.RestoreSnapshot(context.Background(), blob.Snapshot); rerr != nil {
		zs.Close()
		s.retire(zs, inj)
		resp.Err = wire.Errf(wire.CodeOp, "import: snapshot restore: %v", rerr)
		return resp
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		zs.Close()
		resp.Err = wire.Errf(wire.CodeShutdown, "server shutting down")
		return resp
	}
	s.nextSID++
	sess := newSession(s.nextSID, name, zs, s)
	sess.lease = lease
	sess.ilaMeta = ilaMeta
	sess.lastGood = blob.Snapshot // the board holds it now: the known-good base
	sess.injector.Store(inj)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	atomic.AddInt64(&s.stats.sessionsActive, 1)
	atomic.AddInt64(&s.stats.sessionsTotal, 1)
	s.wg.Add(1)
	go sess.loop()
	c.subscribe(sess.id)
	s.cfg.Logf("zoomied: session %d imported %s on board lease %d (%s)",
		sess.id, name, lease.ID, lease.Device)

	resp.Session = sess.id
	resp.Design = name
	resp.Device = lease.Device
	resp.Report = fmt.Sprintf("%s", zs.Result.Report)
	for _, w := range zs.Meta.Watches {
		resp.Watches = append(resp.Watches, w.Signal)
	}
	resp.Cycles = blob.Snapshot.Cycle
	return resp
}
