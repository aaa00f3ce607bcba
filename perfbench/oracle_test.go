package main

import "testing"

const testSeed = 42

// newTestOracle returns an oracle for one lane of 100 B events over 4 keys,
// key k routed to segment k, with seqs 1..n written.
func newTestOracle(n uint64) *Oracle {
	o := NewOracle(testSeed)
	o.AddLane(3, 100, []int64{0, 1, 2, 3})
	o.Expect(3, n, nil)
	return o
}

func testEvent(seq uint64, key uint32) []byte {
	b := make([]byte, 100)
	encodeEvent(b, testSeed, eventID{writer: 3, key: key, seq: seq, due: int64(seq) * 1000})
	return b
}

func deliverAll(o *Oracle, seqs ...uint64) {
	for _, s := range seqs {
		o.Deliver(testEvent(s, uint32(s%2)), int64(s%2))
	}
}

func TestOracleCleanRun(t *testing.T) {
	o := newTestOracle(6)
	deliverAll(o, 1, 2, 3, 4, 5, 6)
	if v := o.Verdict(); v.Total() != 0 {
		t.Fatalf("clean run flagged: %+v", v)
	}
	if !o.Complete() {
		t.Fatal("clean run not complete")
	}
}

func TestOracleFlagsLostEvent(t *testing.T) {
	o := newTestOracle(6)
	deliverAll(o, 1, 2, 3, 5, 6)
	if v := o.Verdict(); v.Lost != 1 || v.Total() != 1 {
		t.Fatalf("want 1 lost, got %+v", v)
	}
	if o.Complete() {
		t.Fatal("complete with an event missing")
	}
}

func TestOracleFailedWriteNeedNotArrive(t *testing.T) {
	o := NewOracle(testSeed)
	o.AddLane(3, 100, []int64{0, 1, 2, 3})
	o.Expect(3, 3, []uint64{2})
	deliverAll(o, 1, 3)
	if v := o.Verdict(); v.Total() != 0 {
		t.Fatalf("refused write counted as lost: %+v", v)
	}
}

func TestOracleFlagsDuplicate(t *testing.T) {
	o := newTestOracle(4)
	deliverAll(o, 1, 2, 3, 3, 4)
	if v := o.Verdict(); v.Duplicate != 1 || v.Total() != 1 {
		t.Fatalf("want 1 duplicate, got %+v", v)
	}
}

func TestOracleFlagsReorderWithinKey(t *testing.T) {
	// Keys alternate by parity: 2 arrives after 4 on key 0. Order across
	// keys (4 before 3) is not a violation.
	o := newTestOracle(6)
	deliverAll(o, 1, 4, 3, 2, 5, 6)
	if v := o.Verdict(); v.Reordered != 1 || v.Total() != 1 {
		t.Fatalf("want 1 reordered, got %+v", v)
	}
}

func TestOracleFlagsCorruption(t *testing.T) {
	o := newTestOracle(3)
	bad := testEvent(2, 0)
	bad[50] ^= 1
	o.Deliver(testEvent(1, 1), 1)
	o.Deliver(bad, 0)
	o.Deliver(testEvent(3, 1), 2) // right bytes, wrong segment for its key
	o.Deliver(testEvent(9, 1), 1) // never written
	v := o.Verdict()
	if v.Corrupt != 3 {
		t.Fatalf("want 3 corrupt, got %+v", v)
	}
}

func TestEventRoundTrip(t *testing.T) {
	for _, size := range []int{headerLen, 25, 100, 1024} {
		b := make([]byte, size)
		id := eventID{writer: 7, key: 999, seq: 123456, due: -5}
		encodeEvent(b, testSeed, id)
		got, ok := decodeEvent(testSeed, b)
		if !ok || got != id {
			t.Fatalf("size %d: decode = %+v, %v", size, got, ok)
		}
		if size > headerLen {
			b[size-1] ^= 0x80
			if _, ok := decodeEvent(testSeed, b); ok {
				t.Fatalf("size %d: flipped last byte not detected", size)
			}
		}
	}
}
