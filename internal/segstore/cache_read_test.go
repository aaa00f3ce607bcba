package segstore

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/readindex"
)

// TestContinuousWriteEvictsTieredPrefix keeps appending to one segment past
// the cache's capacity, tiering as it goes. Cache entries are bounded, so
// the tiered prefix of the segment being written can be evicted while tail
// reads keep hitting the cache, and a read across an entry boundary still
// returns all the bytes it asked for.
func TestContinuousWriteEvictsTieredPrefix(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.Cache = blockcache.Config{BlockSize: 1024, BlocksPerBuffer: 8, MaxBuffers: 4} // 32 KiB, 8 KiB entries
	cfg.FlushSizeBytes = 1
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	defer c.Close()
	const name = "s/t/0"
	if err := c.CreateSegment(name); err != nil {
		t.Fatal(err)
	}
	evictions := mCacheEvictions.Value()
	const piece = 1000 // straddles block boundaries
	var length int64
	for length < 256<<10 { // 8× the cache
		if _, err := c.Append(name, pattern(length, piece), "", 0, 1); err != nil {
			t.Fatalf("Append@%d: %v", length, err)
		}
		length += piece
		if length%(8*piece) == 0 {
			if err := c.FlushAll(); err != nil {
				t.Fatalf("FlushAll: %v", err)
			}
		}
	}
	if got := mCacheEvictions.Value() - evictions; got <= 0 {
		t.Fatal("no cache entry was evicted: the growing tail entry pinned the cache")
	}

	c.mu.Lock()
	entries := c.segments[name].index.Entries()
	c.mu.Unlock()
	var boundary int64 = -1
	for i, e := range entries {
		if e.Where == readindex.InCache && e.Length > c.cache.BufferBytes() {
			t.Fatalf("cache entry %+v is longer than one buffer (%d bytes)", e, c.cache.BufferBytes())
		}
		if i > 0 && e.Where == readindex.InCache && entries[i-1].Where == readindex.InCache {
			boundary = e.Offset
		}
	}
	if boundary < 0 {
		t.Fatalf("no boundary between two cached entries in %+v", entries)
	}

	hits := mCacheHits.Value()
	res, err := c.Read(name, length-100, 100, 0)
	if err != nil || !bytes.Equal(res.Data, pattern(length-100, 100)) {
		t.Fatalf("tail read: %d bytes, %v", len(res.Data), err)
	}
	if mCacheHits.Value() == hits {
		t.Fatal("tail read was not served from the cache")
	}

	// One read across the boundary is served whole: it goes on into the
	// next cached entry rather than stopping short at the first one's end.
	res, err = c.Read(name, boundary-300, 600, 0)
	if err != nil || !bytes.Equal(res.Data, pattern(boundary-300, 600)) {
		t.Fatalf("read across an entry boundary: %d bytes, %v", len(res.Data), err)
	}
}

// largeTailEntry builds a segment whose cached tail entry holds 8 MiB. The
// cache's buffers are 8 MiB so the entry bound does not split it.
func largeTailEntry(tb testing.TB) (*Container, string, int64) {
	tb.Helper()
	env := newTestEnv(tb)
	cfg := env.containerConfig(1)
	cfg.Cache = blockcache.Config{BlockSize: 4096, BlocksPerBuffer: 2048, MaxBuffers: 2}
	c, err := NewContainer(cfg)
	if err != nil {
		tb.Fatalf("NewContainer: %v", err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	const name, total, piece = "s/t/0", 8 << 20, 64 << 10
	if err := c.CreateSegment(name); err != nil {
		tb.Fatal(err)
	}
	for off := 0; off < total; off += piece {
		if _, err := c.Append(name, pattern(int64(off), piece), "", 0, 1); err != nil {
			tb.Fatalf("Append@%d: %v", off, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		tb.Fatalf("FlushAll: %v", err)
	}
	c.mu.Lock()
	tail, ok := c.segments[name].index.TailEntry()
	c.mu.Unlock()
	if !ok || tail.Where != readindex.InCache || tail.Length != total {
		tb.Fatalf("tail entry %+v, want one cached entry of %d bytes", tail, total)
	}
	return c, name, total
}

// TestTailReadCopiesOnlyRequestedBytes: a small read at the tail of a large
// cached entry allocates about what it returns, not the whole entry.
func TestTailReadCopiesOnlyRequestedBytes(t *testing.T) {
	c, name, length := largeTailEntry(t)
	want := pattern(length-100, 100)
	const reads = 1000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		res, err := c.Read(name, length-100, 100, 0)
		if err != nil || !bytes.Equal(res.Data, want) {
			t.Fatalf("tail read: %d bytes, %v", len(res.Data), err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= reads*4096 {
		t.Fatalf("%d tail reads of 100 B allocated %d bytes", reads, got)
	}
}

var benchReadResult ReadResult

// BenchmarkTailReadLargeEntry reads 100 B at the tail of an 8 MiB cached
// entry.
func BenchmarkTailReadLargeEntry(b *testing.B) {
	c, name, length := largeTailEntry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Read(name, length-100, 100, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchReadResult = res
	}
}
