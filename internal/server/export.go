package server

import (
	"bytes"
	"fmt"

	"zoomie"
	"zoomie/internal/codec"
	"zoomie/internal/history"
)

// Session state export/import: the wire transport behind cross-daemon
// failover. OpStateExport (a session op in the op table) returns the
// session's full-scope snapshot plus its encoded history engine as one
// blob in Response.Blob; OpStateImport (attach-with-state, see
// Server.attach) builds a brand-new session from it.
//
// The blob is written with internal/codec:
//
//	blob     := magic snapshot history
//	magic    := "zx01"
//	snapshot := scope cycle regs mems
//	regs     := count (name uvarint)*   in name order
//	mems     := count (name words)*     in name order
//	history  := bytes                   the history.Encode blob, empty when none
//
// The snapshot is the full-scope DebugSnapshot (user design + Debug
// Controller registers).

var exportMagic = []byte("zx01")

// maxExportBytes refuses exports that could not travel in one frame,
// leaving headroom for the response envelope.
const maxExportBytes = 6 << 20

func encodeExport(snap *zoomie.DebugSnapshot, hist []byte) ([]byte, error) {
	b := append([]byte(nil), exportMagic...)
	b = codec.AppendString(b, snap.Scope)
	b = codec.AppendUvarint(b, snap.Cycle)
	b = codec.AppendMap(b, snap.Regs, codec.AppendUvarint)
	b = codec.AppendMap(b, snap.Mems, codec.AppendWords)
	b = codec.AppendBytes(b, hist)
	if len(b) > maxExportBytes {
		return nil, fmt.Errorf("session state too large to export (%d bytes, max %d)", len(b), maxExportBytes)
	}
	return b, nil
}

// decodeExport returns the snapshot and the decoded history engine
// encodeExport wrote; the engine is nil when the session recorded none.
func decodeExport(blob []byte) (*zoomie.DebugSnapshot, *history.Engine, error) {
	if !bytes.HasPrefix(blob, exportMagic) {
		return nil, nil, fmt.Errorf("not a state blob (bad magic)")
	}
	d := codec.NewDecoder(blob[len(exportMagic):])
	snap := &zoomie.DebugSnapshot{Scope: d.String(), Cycle: d.Uvarint()}
	snap.Regs = codec.ReadMap(d, d.Uvarint)
	snap.Mems = codec.ReadMap(d, func() []uint64 { return d.Words(nil) })
	hblob := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("state blob does not parse: %v", err)
	}
	if d.Len() != 0 {
		return nil, nil, fmt.Errorf("state blob has %d trailing bytes", d.Len())
	}
	if hblob == nil {
		return snap, nil, nil
	}
	hist, err := history.Decode(hblob)
	if err != nil {
		return nil, nil, err
	}
	return snap, hist, nil
}
