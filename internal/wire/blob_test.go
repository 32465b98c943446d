package wire_test

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"

	"zoomie/internal/wire"
)

// TestBlobChunks pins the state-blob encoding: standard base64 cut into
// 256 KiB chunks, the last one shorter, decoding back to the blob.
func TestBlobChunks(t *testing.T) {
	blob := make([]byte, 500_000)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	chunks := wire.EncodeBlob(blob)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(chunks))
	}
	for i, c := range chunks[:2] {
		if len(c) != 256<<10 {
			t.Errorf("chunk %d is %d bytes, want %d", i, len(c), 256<<10)
		}
	}
	if got, want := strings.Join(chunks, ""), base64.StdEncoding.EncodeToString(blob); got != want {
		t.Fatal("chunks do not join to the blob's standard base64")
	}
	back, err := wire.DecodeBlob(chunks)
	if err != nil || !bytes.Equal(back, blob) {
		t.Fatalf("round trip: %v", err)
	}
	if got := wire.EncodeBlob(nil); len(got) != 1 || got[0] != "" {
		t.Errorf("empty blob encodes to %q, want one empty chunk", got)
	}
	if _, err := wire.DecodeBlob([]string{"not base64!"}); err == nil {
		t.Error("garbage decoded without error")
	}
}
