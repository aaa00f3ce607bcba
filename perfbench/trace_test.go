package main

import (
	"bytes"
	"errors"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/lts"
)

// fakeNode records what reaches it and answers with fixed results.
type fakeNode struct {
	addLedger, addEntry int64
	addData             []byte
	addErr, readErr     error
	fenceLast           int64
	fenceErr, deleteErr error
	down                bool
}

func (f *fakeNode) ID() string   { return "fake" }
func (f *fakeNode) IsDown() bool { return f.down }
func (f *fakeNode) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	f.addLedger, f.addEntry, f.addData = ledgerID, entryID, data
	cb(f.addErr)
}
func (f *fakeNode) ReadEntry(ledgerID, entryID int64) ([]byte, error) {
	return []byte("entry"), f.readErr
}
func (f *fakeNode) Fence(ledgerID int64) (int64, error) { return f.fenceLast, f.fenceErr }
func (f *fakeNode) DeleteLedger(ledgerID int64) error   { return f.deleteErr }

func TestTimedBookiePassesThrough(t *testing.T) {
	boom := errors.New("boom")
	inner := &fakeNode{addErr: bookkeeper.ErrFenced, readErr: boom, fenceLast: 17, fenceErr: boom, deleteErr: boom, down: true}
	log := &spanLog{}
	adds := &ioCounter{}
	var b bookkeeper.Node = &timedBookie{Node: inner, log: log, adds: adds}

	var got error
	called := 0
	b.AddEntry(5, 9, []byte("abc"), func(err error) { got = err; called++ })
	if called != 1 || !errors.Is(got, bookkeeper.ErrFenced) {
		t.Fatalf("callback: called %d times with %v", called, got)
	}
	if inner.addLedger != 5 || inner.addEntry != 9 || string(inner.addData) != "abc" {
		t.Fatalf("inner saw ledger %d entry %d data %q", inner.addLedger, inner.addEntry, inner.addData)
	}
	if data, err := b.ReadEntry(5, 9); string(data) != "entry" || !errors.Is(err, boom) {
		t.Fatalf("ReadEntry = %q, %v", data, err)
	}
	if last, err := b.Fence(5); last != 17 || !errors.Is(err, boom) {
		t.Fatalf("Fence = %d, %v", last, err)
	}
	if err := b.DeleteLedger(5); !errors.Is(err, boom) {
		t.Fatalf("DeleteLedger = %v", err)
	}
	if b.ID() != "fake" || !b.IsDown() {
		t.Fatal("ID/IsDown not passed through")
	}
	if calls, n := adds.get(); calls != 1 || n != 3 {
		t.Fatalf("counted %d adds of %d bytes", calls, n)
	}
	if len(log.durations(spanBookieAdd, [][2]int64{{0, now() + 1}})) != 1 {
		t.Fatal("no bookie span recorded")
	}
}

func TestTimedLTSPassesThrough(t *testing.T) {
	inner := lts.NewMemory()
	reads, writes := &ioCounter{}, &ioCounter{}
	var s lts.ChunkStorage = &timedLTS{ChunkStorage: inner, log: &spanLog{}, reads: reads, writes: writes}

	if err := s.Write("missing", 0, []byte("x")); !errors.Is(err, lts.ErrNoChunk) {
		t.Fatalf("Write to missing chunk = %v", err)
	}
	if _, err := s.Read("missing", 0, make([]byte, 1)); !errors.Is(err, lts.ErrNoChunk) {
		t.Fatalf("Read of missing chunk = %v", err)
	}
	if err := s.Create("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("c"); !errors.Is(err, lts.ErrChunkExists) {
		t.Fatalf("second Create = %v", err)
	}
	if err := s.Write("c", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("c", 3, []byte("x")); !errors.Is(err, lts.ErrInvalidOffset) {
		t.Fatalf("Write at wrong offset = %v", err)
	}
	buf := make([]byte, 5)
	if n, err := s.Read("c", 0, buf); n != 5 || err != nil || !bytes.Equal(buf, []byte("hello")) {
		t.Fatalf("Read = %d %q %v", n, buf, err)
	}
	if n, err := s.Length("c"); n != 5 || err != nil {
		t.Fatalf("Length = %d, %v", n, err)
	}
	if ok, err := s.Exists("c"); !ok || err != nil {
		t.Fatalf("Exists = %v, %v", ok, err)
	}
	if err := s.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := inner.Exists("c"); ok {
		t.Fatal("Delete not passed through")
	}
	if calls, n := writes.get(); calls != 3 || n != 5 {
		t.Fatalf("counted %d writes of %d bytes", calls, n)
	}
	if _, n := reads.get(); n != 5 {
		t.Fatalf("counted %d read bytes", n)
	}
}
