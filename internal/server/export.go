package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"

	"zoomie"
)

// Session state export/import: the wire transport behind cross-daemon
// failover. OpStateExport (a session op in the op table) returns the
// session's full-scope snapshot plus its encoded history engine as a
// base64 blob chunked into Response.Lines; OpStateImport (attach-with-
// state, see Server.attach) builds a brand-new session from those
// chunks.

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
