package pravega

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestJoinFrameAcrossFetches frames random events, cuts the byte stream
// into random fetch-sized pieces (cuts fall inside headers, inside bodies
// and on frame boundaries), and decodes them the way popBuffered does:
// buf, then more, joined only when buf holds a partial frame. Every event
// must come back in order, and no fetch result may be written to.
func TestJoinFrameAcrossFetches(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var events [][]byte
		var stream []byte
		for i := 0; i < 1+rng.Intn(40); i++ {
			ev := make([]byte, rng.Intn(30))
			rng.Read(ev)
			events = append(events, ev)
			stream = appendEventFrame(stream, ev)
		}
		var fetches, originals [][]byte
		for rest := stream; len(rest) > 0; {
			n := min(1+rng.Intn(12), len(rest))
			fetches = append(fetches, rest[:n:n])
			originals = append(originals, append([]byte(nil), rest[:n]...))
			rest = rest[n:]
		}

		var b, m []byte // the segment's buf and more
		var got [][]byte
		next := 0
		for len(got) < len(events) {
			ev, rest, ok, err := decodeEventFrame(b)
			if !ok && err == nil && len(m) > 0 {
				b, m = joinFrame(b, m)
				ev, rest, ok, err = decodeEventFrame(b)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if ok {
				got = append(got, ev)
				b = rest
				continue
			}
			if next == len(fetches) {
				t.Fatalf("seed %d: %d of %d events decoded when the fetches ran out", seed, len(got), len(events))
			}
			// applyFetch: the result becomes buf when buf is empty, else more.
			if len(b) == 0 && len(m) == 0 {
				b = fetches[next]
			} else if len(m) == 0 {
				m = fetches[next]
			} else {
				m = append(m[:len(m):len(m)], fetches[next]...)
			}
			next++
		}
		for i := range events {
			if !bytes.Equal(got[i], events[i]) {
				t.Fatalf("seed %d: event %d = %x, want %x", seed, i, got[i], events[i])
			}
		}
		if len(b) != 0 || len(m) != 0 || next != len(fetches) {
			t.Fatalf("seed %d: %d+%d bytes and %d fetches left over", seed, len(b), len(m), len(fetches)-next)
		}
		for i := range fetches {
			if !bytes.Equal(fetches[i], originals[i]) {
				t.Fatalf("seed %d: fetch %d was written to", seed, i)
			}
		}
	}
}
