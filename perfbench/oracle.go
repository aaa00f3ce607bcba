package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Every payload starts with a fixed header that identifies the event, and is
// filled up to its size with words derived from that header and the seed, so
// a reader can check each delivered byte without a copy of what was sent.
const (
	payloadMagic = 0x5042
	headerLen    = 24
	weyl         = 0x9E3779B97F4A7C15
)

// eventID is what a payload carries: writer lane, routing-key index, the
// lane's sequence number (from 1) and the intended send time in nanoseconds
// since the run's clock base.
type eventID struct {
	writer uint16
	key    uint32
	seq    uint64
	due    int64
}

// spanID is the identifier the spans file uses for one event: writer lane and
// sequence number.
func spanID(writer uint16, seq uint64) uint64 { return uint64(writer)<<48 | seq }

func splitmix(x uint64) uint64 {
	x += weyl
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func fillBase(seed uint64, id eventID) uint64 {
	return splitmix(seed ^ uint64(id.writer)<<48 ^ id.seq ^ uint64(id.key)<<24 ^ uint64(id.due)*31)
}

// encodeEvent writes id and the derived fill into buf (len(buf) >= headerLen).
func encodeEvent(buf []byte, seed uint64, id eventID) {
	binary.LittleEndian.PutUint16(buf[0:], payloadMagic)
	binary.LittleEndian.PutUint16(buf[2:], id.writer)
	binary.LittleEndian.PutUint32(buf[4:], id.key)
	binary.LittleEndian.PutUint64(buf[8:], id.seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(id.due))
	base := fillBase(seed, id)
	b := buf[headerLen:]
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], base+uint64(i)*weyl)
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], base+uint64(i)*weyl)
		copy(b[i:], w[:])
	}
}

// decodeEvent parses a payload and reports whether every byte matches what
// encodeEvent would have written for the decoded header.
func decodeEvent(seed uint64, buf []byte) (eventID, bool) {
	if len(buf) < headerLen || binary.LittleEndian.Uint16(buf[0:]) != payloadMagic {
		return eventID{}, false
	}
	id := eventID{
		writer: binary.LittleEndian.Uint16(buf[2:]),
		key:    binary.LittleEndian.Uint32(buf[4:]),
		seq:    binary.LittleEndian.Uint64(buf[8:]),
		due:    int64(binary.LittleEndian.Uint64(buf[16:])),
	}
	base := fillBase(seed, id)
	b := buf[headerLen:]
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != base+uint64(i)*weyl {
			return id, false
		}
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], base+uint64(i)*weyl)
		for j := range b[i:] {
			if b[i+j] != w[j] {
				return id, false
			}
		}
	}
	return id, true
}

// Violations counts what an oracle found wrong.
type Violations struct {
	Lost      int64 // acknowledged but never delivered
	Duplicate int64 // delivered more than once
	Reordered int64 // delivered after a later event of the same writer and key
	Corrupt   int64 // bad bytes, wrong size, wrong segment or never written
}

// Total is the number of violating events.
func (v Violations) Total() int64 { return v.Lost + v.Duplicate + v.Reordered + v.Corrupt }

// Add accumulates another oracle's findings.
func (v *Violations) Add(o Violations) {
	v.Lost += o.Lost
	v.Duplicate += o.Duplicate
	v.Reordered += o.Reordered
	v.Corrupt += o.Corrupt
}

// oracleLane is one writer's expectations and delivery record.
type oracleLane struct {
	size   int
	keySeg []int64 // key index -> segment number it must come from
	sent   uint64  // seqs 1..sent were written (set by Expect)
	failed map[uint64]bool
	seen   []uint64 // bitset by seq
	last   []uint64 // key index -> last delivered seq
}

// Oracle checks what one reader group delivers: exactly once, in per-key
// order, byte-exact, from the segment its routing key maps to.
type Oracle struct {
	seed uint64

	mu    sync.Mutex
	lanes []*oracleLane
	v     Violations
	bytes int64
	want  atomic.Int64 // distinct events expected (set by Expect)
	got   atomic.Int64 // distinct valid events delivered
}

// NewOracle returns an oracle for payloads made with seed.
func NewOracle(seed uint64) *Oracle { return &Oracle{seed: seed} }

// AddLane registers a writer lane whose events this oracle's group reads:
// payload size and, per key index, the segment number the key routes to.
func (o *Oracle) AddLane(writer uint16, size int, keySeg []int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.lanes) <= int(writer) {
		o.lanes = append(o.lanes, nil)
	}
	o.lanes[writer] = &oracleLane{size: size, keySeg: keySeg, last: make([]uint64, len(keySeg))}
}

// Expect records that a lane wrote seqs 1..sent, of which failed were
// refused by the writer and so need not be delivered.
func (o *Oracle) Expect(writer uint16, sent uint64, failed []uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l := o.lanes[writer]
	l.sent = sent
	l.failed = make(map[uint64]bool, len(failed))
	for _, s := range failed {
		l.failed[s] = true
	}
	o.want.Add(int64(sent) - int64(len(failed)))
}

// Deliver checks one delivered event from segment seg. It returns the
// event's identity and whether it was valid and new; latency is recorded
// only for those.
func (o *Oracle) Deliver(data []byte, seg int64) (eventID, bool) {
	id, ok := decodeEvent(o.seed, data)
	o.mu.Lock()
	defer o.mu.Unlock()
	var l *oracleLane
	if ok && int(id.writer) < len(o.lanes) {
		l = o.lanes[id.writer]
	}
	if l == nil || len(data) != l.size || id.seq == 0 || int(id.key) >= len(l.keySeg) || l.keySeg[id.key] != seg {
		o.v.Corrupt++
		return id, false
	}
	w, bit := id.seq/64, uint64(1)<<(id.seq%64)
	for uint64(len(l.seen)) <= w {
		l.seen = append(l.seen, 0)
	}
	if l.seen[w]&bit != 0 {
		o.v.Duplicate++
		return id, false
	}
	l.seen[w] |= bit
	if id.seq < l.last[id.key] {
		o.v.Reordered++
	} else {
		l.last[id.key] = id.seq
	}
	o.bytes += int64(len(data))
	o.got.Add(1)
	return id, true
}

// Complete reports whether every expected event has been delivered.
func (o *Oracle) Complete() bool {
	w := o.want.Load()
	return w > 0 && o.got.Load() >= w
}

// Delivered returns the distinct valid events and their bytes so far.
func (o *Oracle) Delivered() (events, bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.got.Load(), o.bytes
}

// Verdict closes the books: every expected event not delivered is lost, and
// a delivered seq beyond what its lane wrote was never written at all.
func (o *Oracle) Verdict() Violations {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := o.v
	for _, l := range o.lanes {
		if l == nil {
			continue
		}
		for s := uint64(1); s <= l.sent; s++ {
			w := s / 64
			seen := w < uint64(len(l.seen)) && l.seen[w]&(1<<(s%64)) != 0
			if !seen && !l.failed[s] {
				v.Lost++
			}
		}
		for w, bits := range l.seen {
			for b := 0; b < 64; b++ {
				if bits&(1<<b) != 0 && uint64(w*64+b) > l.sent {
					v.Corrupt++
				}
			}
		}
	}
	return v
}
