package pravega

import (
	"encoding/binary"
	"errors"
)

// Events are stored in segments as length-prefixed frames: the segment
// store itself does not track event boundaries (§2.1); the client codec
// defines them.

// appendEventFrame serializes one event into dst.
func appendEventFrame(dst, event []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(event)))
	dst = append(dst, hdr[:]...)
	return append(dst, event...)
}

// eventFrameSize returns the on-segment size of one event.
func eventFrameSize(event []byte) int { return 4 + len(event) }

// joinFrame moves from the head of more onto the end of buf the bytes that
// complete buf's first frame, or all of more when that is not enough. Only
// those bytes are copied: when buf is empty, more simply becomes buf.
func joinFrame(buf, more []byte) (joined, rest []byte) {
	if len(buf) == 0 {
		return more, nil
	}
	need := 4 - len(buf) // header bytes still missing
	if need <= 0 {
		need = 4 + int(binary.BigEndian.Uint32(buf)) - len(buf)
	} else if need <= len(more) {
		var hdr [4]byte
		copy(hdr[copy(hdr[:], buf):], more)
		need += int(binary.BigEndian.Uint32(hdr[:]))
	}
	need = min(need, len(more))
	joined = make([]byte, len(buf)+need)
	copy(joined[copy(joined, buf):], more[:need])
	return joined, more[need:]
}

// decodeEventFrame extracts the first complete event from buf, returning
// the event, the remaining buffer, and whether a complete frame was
// present.
func decodeEventFrame(buf []byte) (event, rest []byte, ok bool, err error) {
	if len(buf) < 4 {
		return nil, buf, false, nil
	}
	n := binary.BigEndian.Uint32(buf)
	if n > 64<<20 {
		return nil, buf, false, errors.New("pravega: corrupt event frame (length too large)")
	}
	if len(buf) < int(4+n) {
		return nil, buf, false, nil
	}
	return buf[4 : 4+n], buf[4+n:], true, nil
}
