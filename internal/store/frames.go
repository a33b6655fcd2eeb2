package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/workload"
)

// Frame-level wire encoding.  A streamed binary response is a sequence of
// length-prefixed container frames: each frame is a uvarint byte count
// followed by exactly that many bytes of a sealed container (KindOutcome per
// seed, then one trailer — the assembled KindSweep container on success or a
// KindError container on failure).  The containers reuse the codec the disk
// path already has, so every frame is independently checksummed and a
// truncated stream is detected by the missing trailer, never mistaken for a
// complete response.

// maxFrameLen bounds a declared frame length so a corrupt prefix cannot force
// a huge allocation; real frames are either tiny outcome containers or one
// sweep record.
const maxFrameLen = 1 << 30

// EncodeOutcome serialises one per-seed outcome as a container: the frame of
// a binary sweep stream and the per-seed corpus record of a sweep.  The
// recorded run is not part of it — streams and sweep responses carry scores,
// not traces — so an outcome stays a few dozen bytes.
func EncodeOutcome(o workload.RunOutcome) []byte {
	w := newWriter()
	w.outcome(&o)
	return w.seal(KindOutcome)
}

// DecodeOutcome deserialises a container encoded by EncodeOutcome.  It reads
// bytes that come back from disk, so it is fuzzed (FuzzDecodeOutcome).
func DecodeOutcome(data []byte) (workload.RunOutcome, error) {
	payload, err := unseal(data, KindOutcome)
	if err != nil {
		return workload.RunOutcome{}, err
	}
	r := reader{data: payload}
	var o workload.RunOutcome
	r.outcomeInto(&o)
	if err := r.done(); err != nil {
		return workload.RunOutcome{}, err
	}
	return o, nil
}

// EncodeStreamError serialises a stream's terminal error as a wire container.
func EncodeStreamError(msg string) []byte {
	w := newWriter()
	w.str(msg)
	return w.seal(KindError)
}

// DecodeStreamError deserialises a container encoded by EncodeStreamError.
func DecodeStreamError(data []byte) (string, error) {
	payload, err := unseal(data, KindError)
	if err != nil {
		return "", err
	}
	r := reader{data: payload}
	msg := r.str()
	if err := r.done(); err != nil {
		return "", err
	}
	return msg, nil
}

// AppendFrame appends one length-prefixed container frame to dst.
func AppendFrame(dst, container []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(container)))
	return append(dst, container...)
}

// FrameReader reads length-prefixed container frames from a stream.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r for frame-at-a-time reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Next returns the next frame's container bytes, verified by Check.  The
// returned slice is reused by the following Next call.  It returns io.EOF at
// a clean frame boundary and ErrUnexpectedEOF on a truncated frame.
func (fr *FrameReader) Next() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("store: frame length: %w", err)
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("store: frame length %d exceeds limit", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	frame := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("store: frame body: %w", err)
	}
	if err := Check(frame); err != nil {
		return nil, err
	}
	return frame, nil
}
