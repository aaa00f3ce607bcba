package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{BlockSize: 64, BlocksPerBuffer: 8, MaxBuffers: 4}
}

// readAll reads a whole entry of length n.
func readAll(c *Cache, addr Address, n int) ([]byte, error) {
	dst := make([]byte, n)
	got, err := c.ReadAt(addr, int64(n), 0, dst)
	return dst[:got], err
}

func TestInsertGet(t *testing.T) {
	c := New(small())
	data := []byte("hello, cache")
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(c, addr, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
}

func TestInsertSpanningBlocks(t *testing.T) {
	c := New(small())
	data := bytes.Repeat([]byte("abcdefgh"), 40) // 320 bytes = 5 blocks
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(c, addr, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-block ReadAt mismatch: %d vs %d bytes, %v", len(got), len(data), err)
	}
}

func TestAppendExtendsEntry(t *testing.T) {
	c := New(small())
	addr, err := c.Insert([]byte("start-"))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated appends, crossing block boundaries.
	want := []byte("start-")
	for i := 0; i < 20; i++ {
		chunk := []byte(fmt.Sprintf("piece%02d|", i))
		addr, err = c.Append(addr, chunk)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	got, err := readAll(c, addr, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appended entry mismatch (%d vs %d bytes, %v)", len(got), len(want), err)
	}
}

func TestAppendToNilAddress(t *testing.T) {
	c := New(small())
	if _, err := c.Append(NilAddress, []byte("x")); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("append to nil: %v", err)
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	c := New(small())
	data := bytes.Repeat([]byte("z"), 300)
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.UsedBytes != before.UsedBytes-300 {
		t.Fatalf("UsedBytes %d -> %d", before.UsedBytes, after.UsedBytes)
	}
	if after.FreeBlocks <= before.FreeBlocks {
		t.Fatal("blocks not returned to the free lists")
	}
	if _, err := readAll(c, addr, len(data)); !errors.Is(err, ErrEntryDeleted) {
		t.Fatalf("ReadAt after delete: %v", err)
	}
	if err := c.Delete(addr); !errors.Is(err, ErrEntryDeleted) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCacheFullAndRecovery(t *testing.T) {
	cfg := small() // capacity: 4 × 8 × 64 = 2048 bytes
	c := New(cfg)
	var addrs []Address
	for {
		addr, err := c.Insert(bytes.Repeat([]byte("f"), 64))
		if err != nil {
			if !errors.Is(err, ErrCacheFull) {
				t.Fatal(err)
			}
			break
		}
		addrs = append(addrs, addr)
	}
	if len(addrs) != 32 {
		t.Fatalf("filled %d blocks, want 32", len(addrs))
	}
	// Free one entry; allocation must succeed again.
	if err := c.Delete(addrs[7]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]byte("again")); err != nil {
		t.Fatalf("insert after free: %v", err)
	}
}

func TestEmptyInsert(t *testing.T) {
	c := New(small())
	addr, err := c.Insert(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(c, addr, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty entry ReadAt = %q, %v", got, err)
	}
	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
}

func TestBadAddresses(t *testing.T) {
	c := New(small())
	if _, err := c.ReadAt(NilAddress, 0, 0, nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("ReadAt(nil): %v", err)
	}
	if _, err := c.ReadAt(Address(9999), 0, 0, nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("ReadAt(out of range): %v", err)
	}
}

func TestMaxBytes(t *testing.T) {
	c := New(small())
	if c.MaxBytes() != 4*8*64 {
		t.Fatalf("MaxBytes = %d", c.MaxBytes())
	}
}

func TestConcurrentEntries(t *testing.T) {
	c := New(Config{BlockSize: 128, BlocksPerBuffer: 64, MaxBuffers: 16})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				data := bytes.Repeat([]byte{byte('a' + w)}, 1+rng.Intn(500))
				addr, err := c.Insert(data)
				if err != nil {
					errs <- err
					return
				}
				got, err := readAll(c, addr, len(data))
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("worker %d: corrupt read (%v)", w, err)
					return
				}
				if err := c.Delete(addr); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Fatalf("leaked %d bytes", st.UsedBytes)
	}
}

// TestAllocFreeInvariantProperty: after an arbitrary interleaving of
// inserts, appends and deletes, (a) every live entry reads back exactly,
// (b) UsedBytes equals the sum of live entry sizes, and (c) free+used block
// accounting matches the buffer totals.
func TestAllocFreeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{BlockSize: 32, BlocksPerBuffer: 16, MaxBuffers: 8})
		type live struct {
			addr Address
			data []byte
		}
		var entries []live
		var total int64
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // insert
				data := make([]byte, rng.Intn(100))
				rng.Read(data)
				addr, err := c.Insert(data)
				if errors.Is(err, ErrCacheFull) {
					continue
				}
				if err != nil {
					return false
				}
				entries = append(entries, live{addr, append([]byte(nil), data...)})
				total += int64(len(data))
			case r < 7 && len(entries) > 0: // append
				i := rng.Intn(len(entries))
				data := make([]byte, rng.Intn(60))
				rng.Read(data)
				addr, err := c.Append(entries[i].addr, data)
				if errors.Is(err, ErrCacheFull) {
					// Atomic failure: the entry must be untouched.
					got, gerr := readAll(c, entries[i].addr, len(entries[i].data))
					if gerr != nil || !bytes.Equal(got, entries[i].data) {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				entries[i].addr = addr
				entries[i].data = append(entries[i].data, data...)
				total += int64(len(data))
			case len(entries) > 0: // delete
				i := rng.Intn(len(entries))
				if err := c.Delete(entries[i].addr); err != nil {
					return false
				}
				total -= int64(len(entries[i].data))
				entries = append(entries[:i], entries[i+1:]...)
			}
		}
		for _, e := range entries {
			got, err := readAll(c, e.addr, len(e.data))
			if err != nil || !bytes.Equal(got, e.data) {
				return false
			}
		}
		st := c.Stats()
		if st.UsedBytes != total {
			return false
		}
		return st.FreeBlocks <= st.TotalBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadAtRangesProperty: after random inserts and appends, ReadAt at
// random offsets and lengths returns exactly the reference bytes. Ranges
// cross block boundaries, run past the entry's end (clamped to entryLen)
// and include zero-length reads; a deleted entry reports ErrEntryDeleted.
func TestReadAtRangesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{BlockSize: 16, BlocksPerBuffer: 32, MaxBuffers: 8})
		type live struct {
			addr Address
			data []byte
		}
		var entries []live
		for op := 0; op < 60; op++ {
			data := make([]byte, rng.Intn(50))
			rng.Read(data)
			if len(entries) == 0 || rng.Intn(3) == 0 {
				addr, err := c.Insert(data)
				if errors.Is(err, ErrCacheFull) {
					break
				}
				if err != nil {
					return false
				}
				entries = append(entries, live{addr, data})
				continue
			}
			e := &entries[rng.Intn(len(entries))]
			addr, err := c.Append(e.addr, data)
			if errors.Is(err, ErrCacheFull) {
				break
			}
			if err != nil {
				return false
			}
			e.addr, e.data = addr, append(e.data, data...)
		}
		for _, e := range entries {
			size := int64(len(e.data))
			for r := 0; r < 20; r++ {
				off := rng.Int63n(size + 1)
				dst := make([]byte, rng.Intn(int(size)+8)) // may run past the end
				if r == 0 {
					dst = nil
				}
				n, err := c.ReadAt(e.addr, size, off, dst)
				want := e.data[off:min(off+int64(len(dst)), size)]
				if err != nil || n != len(want) || !bytes.Equal(dst[:n], want) {
					t.Logf("seed %d: ReadAt(off %d, len %d) of %d bytes = %d, %v", seed, off, len(dst), size, n, err)
					return false
				}
			}
		}
		for _, e := range entries {
			if err := c.Delete(e.addr); err != nil {
				return false
			}
			if _, err := c.ReadAt(e.addr, int64(len(e.data)), 0, make([]byte, 1)); !errors.Is(err, ErrEntryDeleted) {
				return false
			}
			if _, err := c.ReadAt(e.addr, int64(len(e.data)), 0, nil); !errors.Is(err, ErrEntryDeleted) {
				return false
			}
		}
		return c.Stats().UsedBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAtRejectsOffsetOutsideEntry(t *testing.T) {
	c := New(small())
	addr, err := c.Insert([]byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{-1, 11} {
		if _, err := c.ReadAt(addr, 10, off, make([]byte, 4)); err == nil {
			t.Fatalf("ReadAt(off %d) of a 10-byte entry succeeded", off)
		}
	}
	// An entryLen longer than the chain is reported, not read as zeros.
	if _, err := c.ReadAt(addr, 100, 0, make([]byte, 100)); err == nil {
		t.Fatal("ReadAt past the chain's first block succeeded")
	}
}
