package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"zoomie"
	"zoomie/internal/wire"
)

// Session state export/import: the wire transport behind cross-daemon
// failover. OpStateExport (a session op in the op table) returns the
// session's full-scope snapshot plus its encoded history engine as a
// blob chunked into Response.Lines by wire.EncodeBlob; OpStateImport
// (attach-with-state, see Server.attach) builds a brand-new session from
// those chunks.

// exportBlob is the JSON envelope inside an export blob. The snapshot is
// the full-scope DebugSnapshot (user design + Debug Controller
// registers); History is the history.Encode blob, nil when the session
// records no history.
type exportBlob struct {
	Snapshot *zoomie.DebugSnapshot `json:"snapshot"`
	History  []byte                `json:"history,omitempty"`
}

// maxExportBytes refuses exports that could not travel in one frame,
// leaving headroom for the response envelope.
const maxExportBytes = 6 << 20

func encodeExport(snap *zoomie.DebugSnapshot, hist []byte) ([]string, error) {
	data, err := json.Marshal(exportBlob{Snapshot: snap, History: hist})
	if err != nil {
		return nil, err
	}
	if n := base64.StdEncoding.EncodedLen(len(data)); n > maxExportBytes {
		return nil, fmt.Errorf("session state too large to export (%d bytes encoded, max %d)", n, maxExportBytes)
	}
	return wire.EncodeBlob(data), nil
}

func decodeExport(chunks []string) (*exportBlob, error) {
	data, err := wire.DecodeBlob(chunks)
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
