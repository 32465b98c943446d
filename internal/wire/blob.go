package wire

import (
	"encoding/base64"
	"strings"
)

// blobChunk bounds one chunk of a session state blob. The whole
// OpStateExport response must still fit one frame (MaxFrame), which
// bounds the state a session can export; the modeled designs sit far
// below it.
const blobChunk = 256 << 10

// EncodeBlob base64-encodes a session state blob into chunks of at most
// 256 KiB: OpStateExport returns them in Response.Lines, and
// OpStateImport carries them back in Request.Signals.
func EncodeBlob(blob []byte) []string {
	b64 := base64.StdEncoding.EncodeToString(blob)
	var chunks []string
	for len(b64) > blobChunk {
		chunks = append(chunks, b64[:blobChunk])
		b64 = b64[blobChunk:]
	}
	return append(chunks, b64)
}

// DecodeBlob joins and decodes the chunks EncodeBlob made.
func DecodeBlob(chunks []string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(strings.Join(chunks, ""))
}
