// Package blockcache implements Pravega's append-friendly in-memory cache
// (§4.2, Fig. 4). The cache is divided into equal-sized blocks addressed by
// a 32-bit pointer; blocks are daisy-chained backwards to form entries, and
// an entry's address is the address of its *last* block so appends locate
// the write position in O(1). Blocks live in pre-allocated buffers; each
// buffer keeps its own free-block chain (a small concurrency domain), and a
// queue of buffers with availability serves allocations across buffers.
package blockcache

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the cache.
var (
	ErrCacheFull    = errors.New("blockcache: cache is full")
	ErrBadAddress   = errors.New("blockcache: invalid address")
	ErrEntryDeleted = errors.New("blockcache: entry deleted")
)

// Address is a 32-bit block pointer. The zero value is the nil address.
type Address uint32

// NilAddress marks the absence of a block.
const NilAddress Address = 0

// Config sizes the cache.
type Config struct {
	// BlockSize is the size of one cache block (default 4 KiB).
	BlockSize int
	// BlocksPerBuffer is the number of blocks in one pre-allocated buffer
	// (default 512, i.e. 2 MiB buffers as in the paper's example).
	BlocksPerBuffer int
	// MaxBuffers caps total memory at BlockSize×BlocksPerBuffer×MaxBuffers.
	MaxBuffers int
}

func (c *Config) defaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.BlocksPerBuffer <= 0 {
		c.BlocksPerBuffer = 512
	}
	if c.MaxBuffers <= 0 {
		c.MaxBuffers = 64
	}
}

// blockMeta mirrors the tabular metadata of Fig. 4.
type blockMeta struct {
	used   bool
	length int32   // bytes used within the block
	prev   Address // previous block in the entry chain (NilAddress = first)
	next   int32   // next free block index within the buffer (-1 = none)
}

// buffer is one contiguous pre-allocated region with a local free list.
type buffer struct {
	idx       int // position in Cache.buffers
	mu        sync.Mutex
	data      []byte
	meta      []blockMeta
	freeHead  int32 // index of first free block, -1 when exhausted
	freeCount int
}

// Cache is safe for concurrent use. Entries are identified by the Address
// returned from Insert/Append; appending returns a new address whenever the
// chain grows.
type Cache struct {
	cfg Config

	mu        sync.Mutex
	buffers   []*buffer
	avail     []int // indices of buffers with free blocks (FIFO queue)
	availSet  []bool
	usedBytes int64
}

// New creates a cache.
func New(cfg Config) *Cache {
	cfg.defaults()
	return &Cache{cfg: cfg, availSet: make([]bool, 0, cfg.MaxBuffers)}
}

// addressOf encodes (buffer, block) into a non-nil address.
func (c *Cache) addressOf(bufIdx, blockIdx int) Address {
	return Address(uint32(bufIdx)*uint32(c.cfg.BlocksPerBuffer) + uint32(blockIdx) + 1)
}

// block decodes an address into its buffer and block index, taking c.mu
// once.
func (c *Cache) block(a Address) (*buffer, int, error) {
	if a == NilAddress {
		return nil, 0, ErrBadAddress
	}
	v := int(uint32(a) - 1)
	bi, blk := v/c.cfg.BlocksPerBuffer, v%c.cfg.BlocksPerBuffer
	c.mu.Lock()
	defer c.mu.Unlock()
	if bi >= len(c.buffers) {
		return nil, 0, ErrBadAddress
	}
	return c.buffers[bi], blk, nil
}

func newBuffer(cfg Config, idx int) *buffer {
	b := &buffer{
		idx:       idx,
		data:      make([]byte, cfg.BlockSize*cfg.BlocksPerBuffer),
		meta:      make([]blockMeta, cfg.BlocksPerBuffer),
		freeCount: cfg.BlocksPerBuffer,
	}
	for i := range b.meta {
		b.meta[i].next = int32(i + 1)
	}
	b.meta[len(b.meta)-1].next = -1
	b.freeHead = 0
	return b
}

// allocBlock finds a free block, preferring buffers already in the
// availability queue, growing the buffer set up to MaxBuffers.
func (c *Cache) allocBlock() (*buffer, int, error) {
	c.mu.Lock()
	for {
		if len(c.avail) == 0 {
			if len(c.buffers) >= c.cfg.MaxBuffers {
				c.mu.Unlock()
				return nil, 0, ErrCacheFull
			}
			c.buffers = append(c.buffers, newBuffer(c.cfg, len(c.buffers)))
			c.availSet = append(c.availSet, true)
			c.avail = append(c.avail, len(c.buffers)-1)
		}
		bi := c.avail[0]
		b := c.buffers[bi]
		c.mu.Unlock()

		b.mu.Lock()
		if b.freeHead < 0 {
			b.mu.Unlock()
			c.mu.Lock()
			// Buffer raced to exhaustion; drop it from the queue and retry.
			if len(c.avail) > 0 && c.avail[0] == bi {
				c.avail = c.avail[1:]
				c.availSet[bi] = false
			}
			continue
		}
		idx := b.freeHead
		b.freeHead = b.meta[idx].next
		b.freeCount--
		exhausted := b.freeHead < 0
		b.meta[idx] = blockMeta{used: true, next: -1}
		b.mu.Unlock()

		c.mu.Lock()
		if exhausted && len(c.avail) > 0 && c.avail[0] == bi {
			c.avail = c.avail[1:]
			c.availSet[bi] = false
		}
		c.mu.Unlock()
		return b, int(idx), nil
	}
}

// freeChain frees the blocks of a chain from a back to, but not including,
// stop, and returns the bytes they held. Buffers that regained free blocks
// are queued for allocation under one c.mu at the end.
func (c *Cache) freeChain(a, stop Address) (int64, error) {
	var freed int64
	var touched []*buffer
	var err error
	for a != stop {
		b, blk, berr := c.block(a)
		if berr != nil {
			err = berr
			break
		}
		b.mu.Lock()
		m := b.meta[blk]
		if !m.used {
			b.mu.Unlock()
			err = ErrEntryDeleted
			break
		}
		b.meta[blk] = blockMeta{next: b.freeHead}
		b.freeHead = int32(blk)
		b.freeCount++
		b.mu.Unlock()
		freed += int64(m.length)
		if len(touched) == 0 || touched[len(touched)-1] != b {
			touched = append(touched, b)
		}
		a = m.prev
	}
	c.mu.Lock()
	for _, b := range touched {
		if !c.availSet[b.idx] {
			c.availSet[b.idx] = true
			c.avail = append(c.avail, b.idx)
		}
	}
	c.mu.Unlock()
	return freed, err
}

// Insert stores data as a new entry and returns its address (the address of
// the chain's last block). On ErrCacheFull nothing is allocated.
func (c *Cache) Insert(data []byte) (Address, error) {
	return c.appendChain(NilAddress, data)
}

// Append extends the entry at addr with data and returns the (possibly new)
// entry address. The caller must present the entry's current address. On
// ErrCacheFull the entry is left exactly as it was.
func (c *Cache) Append(addr Address, data []byte) (Address, error) {
	if addr == NilAddress {
		return NilAddress, ErrBadAddress
	}
	return c.appendChain(addr, data)
}

// appendChain extends (or creates) an entry chain atomically: a mid-way
// allocation failure rolls back the tail fill and frees any new blocks, so
// callers never leak cache space on ErrCacheFull. The bytes are counted in
// UsedBytes only once the whole chain is written.
func (c *Cache) appendChain(orig Address, data []byte) (Address, error) {
	written := 0
	var tail *buffer // orig's last block, when data filled its spare room
	tailBlk := -1

	// Fill the remaining capacity of the current last block first.
	if orig != NilAddress {
		b, blk, err := c.block(orig)
		if err != nil {
			return NilAddress, err
		}
		b.mu.Lock()
		m := &b.meta[blk]
		if !m.used {
			b.mu.Unlock()
			return NilAddress, ErrEntryDeleted
		}
		if n := min(c.cfg.BlockSize-int(m.length), len(data)); n > 0 {
			off := blk*c.cfg.BlockSize + int(m.length)
			copy(b.data[off:off+n], data[:n])
			m.length += int32(n)
			written = n
			tail, tailBlk = b, blk
		}
		b.mu.Unlock()
	}
	tailFilled := written
	last := orig
	for written < len(data) || last == NilAddress {
		b, blk, err := c.allocBlock()
		if err != nil {
			// The new blocks are this call's own and were never counted in
			// UsedBytes, so neither the freed count nor an error (only a
			// concurrent Delete of an entry being appended to could cause
			// one) changes what the caller sees: ErrCacheFull.
			_, _ = c.freeChain(last, orig)
			if tail != nil {
				tail.mu.Lock()
				tail.meta[tailBlk].length -= int32(tailFilled)
				tail.mu.Unlock()
			}
			return orig, err
		}
		n := min(len(data)-written, c.cfg.BlockSize)
		b.mu.Lock()
		b.meta[blk].prev = last
		b.meta[blk].length = int32(n)
		copy(b.data[blk*c.cfg.BlockSize:], data[written:written+n])
		b.mu.Unlock()
		written += n
		last = c.addressOf(b.idx, blk)
	}
	c.addUsed(int64(len(data)))
	return last, nil
}

func (c *Cache) addUsed(n int64) {
	c.mu.Lock()
	c.usedBytes += n
	c.mu.Unlock()
	mUsedBytes.Add(n)
}

// ReadAt copies the bytes [off, off+len(dst)) of the entry whose last block
// is addr into dst, clamped at entryLen, and returns how many it copied.
// entryLen must be the entry's current length. The chain is walked backwards
// from the last block and the walk stops at the first block that starts at
// or before off, so a read near an entry's tail visits only the blocks it
// copies from, however long the entry is.
func (c *Cache) ReadAt(addr Address, entryLen, off int64, dst []byte) (int, error) {
	if off < 0 || off > entryLen {
		return 0, fmt.Errorf("blockcache: read at %d outside entry of length %d", off, entryLen)
	}
	n := int(min(int64(len(dst)), entryLen-off))
	end := entryLen // entry offset one past the current block's last byte
	for a := addr; ; {
		b, blk, err := c.block(a)
		if err != nil {
			return 0, err
		}
		b.mu.Lock()
		m := b.meta[blk]
		if !m.used {
			b.mu.Unlock()
			return 0, ErrEntryDeleted
		}
		start := end - int64(m.length)
		if lo, hi := max(start, off), min(end, off+int64(n)); lo < hi {
			base := int64(blk*c.cfg.BlockSize) - start
			copy(dst[lo-off:hi-off], b.data[base+lo:base+hi])
		}
		b.mu.Unlock()
		if start <= off {
			return n, nil
		}
		if m.prev == NilAddress {
			return 0, fmt.Errorf("blockcache: entry at %v is shorter than %d bytes", addr, entryLen)
		}
		end, a = start, m.prev
	}
}

// Delete frees every block of the entry at addr.
func (c *Cache) Delete(addr Address) error {
	if addr == NilAddress {
		return ErrBadAddress
	}
	freed, err := c.freeChain(addr, NilAddress)
	c.addUsed(-freed)
	return err
}

// Stats describes cache occupancy.
type Stats struct {
	UsedBytes   int64
	Buffers     int
	FreeBlocks  int
	TotalBlocks int
}

// Stats returns a consistent-enough snapshot of occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bufs := append([]*buffer(nil), c.buffers...)
	st := Stats{UsedBytes: c.usedBytes, Buffers: len(bufs)}
	c.mu.Unlock()
	for _, b := range bufs {
		b.mu.Lock()
		st.FreeBlocks += b.freeCount
		b.mu.Unlock()
		st.TotalBlocks += c.cfg.BlocksPerBuffer
	}
	return st
}

// BufferBytes returns the size of one pre-allocated buffer, BlockSize ×
// BlocksPerBuffer. An entry no longer than this spans at most
// BlocksPerBuffer blocks, which bounds the chain walk of ReadAt.
func (c *Cache) BufferBytes() int64 {
	return int64(c.cfg.BlockSize) * int64(c.cfg.BlocksPerBuffer)
}

// MaxBytes returns the configured capacity in bytes.
func (c *Cache) MaxBytes() int64 {
	return c.BufferBytes() * int64(c.cfg.MaxBuffers)
}

func (a Address) String() string { return fmt.Sprintf("blk#%d", uint32(a)) }
