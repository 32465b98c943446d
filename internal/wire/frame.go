package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame payload. It is checked before any allocation,
// so a hostile length prefix cannot make the decoder allocate unbounded
// memory. 8 MiB fits the largest legitimate payload: a session state
// export, which the server refuses above 6 MiB, with room for its
// response envelope.
const MaxFrame = 8 << 20

// ErrFrameTooLarge is returned when a length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// WriteMessage encodes one message as a length-prefixed JSON frame — the
// hello's encoding — and returns the number of bytes written. The
// prefix+payload staging buffer comes from a pool shared with the binary
// path.
func WriteMessage(w io.Writer, m *Message) (int, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return 0, fmt.Errorf("wire: encode: %w", err)
	}
	if len(payload) > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	bp := msgBufPool.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(payload)))
	buf = append(buf, payload...)
	n, err := w.Write(buf)
	*bp = buf[:0]
	msgBufPool.Put(bp)
	return n, err
}

// ReadMessage decodes one JSON frame (a hello). It returns the message, the number of
// bytes consumed, and an error. Truncated input yields io.EOF (clean
// close between frames) or io.ErrUnexpectedEOF (mid-frame); oversized
// length prefixes yield ErrFrameTooLarge before any payload allocation;
// malformed JSON or an inconsistent envelope yields a decode error. It
// never panics.
func ReadMessage(r io.Reader) (*Message, int, error) {
	var hdr [4]byte
	payload, n, err := readFrame(r, hdr[:], nil)
	if err != nil {
		return nil, n, err
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, n, fmt.Errorf("wire: decode: %w", err)
	}
	if err := m.check(); err != nil {
		return nil, n, err
	}
	return &m, n, nil
}

// ServeHello serves the hello that must open every connection, for
// zoomied and zfleet alike. It reads the first frame and refuses it with
// CodeBadRequest unless it is an OpHello, or with CodeVersion when the
// hello offers less than MinVersion; any other hello is answered with
// Version. Replies go out through write before ServeHello returns, so a
// refused client reads the reason before the connection closes. It
// returns the bytes read and whether the connection goes on in the
// binary codec.
func ServeHello(r io.Reader, write func(*Message)) (int, bool) {
	m, n, err := ReadMessage(r)
	if err != nil {
		return n, false
	}
	if m.T != TReq || m.Req.Op != OpHello {
		write(Resp(&Response{Err: Errf(CodeBadRequest, "first frame must be %q", OpHello)}))
		return n, false
	}
	if m.Req.Version < MinVersion {
		write(Resp(&Response{ID: m.Req.ID, Err: Errf(CodeVersion,
			"protocol version %d, server speaks %d", m.Req.Version, Version)}))
		return n, false
	}
	write(Resp(&Response{ID: m.Req.ID, Version: Version}))
	return n, true
}

// check validates the envelope discriminator against its payload.
func (m *Message) check() error {
	switch m.T {
	case TReq:
		if m.Req == nil || m.Resp != nil || m.Evt != nil {
			return fmt.Errorf("wire: malformed %q envelope", m.T)
		}
	case TResp:
		if m.Resp == nil || m.Req != nil || m.Evt != nil {
			return fmt.Errorf("wire: malformed %q envelope", m.T)
		}
	case TEvt:
		if m.Evt == nil || m.Req != nil || m.Resp != nil {
			return fmt.Errorf("wire: malformed %q envelope", m.T)
		}
	default:
		return fmt.Errorf("wire: unknown message type %q", m.T)
	}
	return nil
}

// Req wraps a request in its envelope.
func Req(r *Request) *Message { return &Message{T: TReq, Req: r} }

// Resp wraps a response in its envelope.
func Resp(r *Response) *Message { return &Message{T: TResp, Resp: r} }

// Evt wraps an event in its envelope.
func Evt(e *Event) *Message { return &Message{T: TEvt, Evt: e} }
