package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/hosting"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// workload is one traffic mix. All of them run 1 store × 4 containers,
// 3 bookies with 3/3/2 replication, lts.FS and no simulated devices.
type workload struct {
	name string
	wire bool // reach the cluster through pravega.Connect and a wire.Server

	tailWriters int     // open-loop writers on the tail stream
	tailRate    float64 // mean events/s over all tail writers

	backlogBytes int64 // catch-up backlog, tiered and evicted in set-up
	cacheBuffers int   // block cache 2 MiB buffers per container (0 = default 128 MiB)

	setups     int     // set-ups per run; the last one is measured
	openShare  float64 // share of the run's seconds in the open loop
	drainShare float64 // share of the run's seconds draining the backlog
}

const (
	scope       = "bench"
	containers  = 4
	segments    = 4
	numKeys     = 1000
	tailSize    = 100
	backlogSize = 1024
	readers     = 2 // per reader group

	// The closed loop runs peakRounds rounds, each on a stream of its own,
	// of peakEventsPerSecond × --seconds events per writer, with at most
	// peakWindow of a writer's events unacknowledged.
	peakRounds          = 5
	peakEventsPerSecond = 5000
	peakWindow          = 1024
)

var workloads = []workload{
	{
		name:        "tail-inproc",
		tailWriters: 2, tailRate: 20000,
		setups: 5, openShare: 0.7,
	},
	{
		name:        "tail-wire",
		wire:        true,
		tailWriters: 2, tailRate: 20000,
		setups: 5, openShare: 0.7,
	},
	{
		name:        "catchup",
		tailWriters: 1, tailRate: 5000,
		backlogBytes: 256 << 20, cacheBuffers: 4,
		setups: 3, openShare: 0.45, drainShare: 0.3,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Writer lane ids, one range per role, so a payload names its origin.
const (
	laneTail    = 1
	laneBacklog = 21
	laneFiller  = 31
	lanePeak    = 41
)

// stream is a created stream and where each routing key lands in it.
type stream struct {
	name    string
	keySeg  []int   // key index -> segment index
	keyNums []int64 // key index -> segment number
}

// env is one running deployment with its streams, set up for a workload.
type env struct {
	w       workload
	seed    uint64
	dir     string
	keys    []string
	sys     *pravega.System // what the load talks to
	backing *pravega.System // the in-process deployment
	srv     *wire.Server

	log                *spanLog
	bkAdds             *ioCounter
	ltsReads, ltsWrite *ioCounter

	tail, backlog *stream
	peaks         []*stream       // one per closed-loop round
	tailLanes     []*writerLane   // open loop on tail
	peakLanes     [][]*writerLane // per round, closed loop on its peak stream
	backlogLanes  []*writerLane
	tailReaders   *readerSet
	tailOracle    *Oracle
}

// pickStreamName returns the first of base, base1, base2, ... whose initial
// segments land on distinct containers, so every workload spreads its load
// evenly. The choice depends only on the name, never on the seed.
func pickStreamName(base string) string {
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s%d", base, i)
		}
		seen := map[int]bool{}
		for s := 0; s < segments; s++ {
			seen[keyspace.HashToContainer(fmt.Sprintf("%s/%s/%d.#epoch.0", scope, name, s), containers)] = true
		}
		if len(seen) == segments {
			return name
		}
	}
}

// setup boots a deployment and prepares every stream a run needs. With a
// span log (a traced run), the bookies and LTS are wrapped in timing
// decorators that record into it.
func setup(w workload, seed uint64, workdir string, log *spanLog) (*env, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	e := &env{w: w, seed: seed, dir: dir, log: log}
	for i := 0; i < numKeys; i++ {
		e.keys = append(e.keys, fmt.Sprintf("key-%04d", i))
	}
	if err := e.boot(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.prepare(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) boot() error {
	fs, err := lts.NewFS(filepath.Join(e.dir, "lts"))
	if err != nil {
		return err
	}
	cc := hosting.ClusterConfig{Stores: 1, ContainersPerStore: containers, Bookies: 3, LTS: fs}
	if e.w.cacheBuffers > 0 {
		cc.Container.Cache = blockcache.Config{MaxBuffers: e.w.cacheBuffers}
	}
	if e.log != nil {
		e.bkAdds, e.ltsReads, e.ltsWrite = &ioCounter{}, &ioCounter{}, &ioCounter{}
		cc.LTS = &timedLTS{ChunkStorage: fs, log: e.log, reads: e.ltsReads, writes: e.ltsWrite}
		cc.WrapBookie = func(n bookkeeper.Node) bookkeeper.Node {
			return &timedBookie{Node: n, log: e.log, adds: e.bkAdds}
		}
	}
	e.backing, err = pravega.NewInProcess(pravega.SystemConfig{Cluster: cc})
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	e.sys = e.backing
	if e.w.wire {
		e.srv, err = wire.NewServer(e.backing.Cluster(), e.backing.Controller(), "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("start wire server: %w", err)
		}
		e.sys, err = pravega.Connect(e.srv.Addr(), pravega.ClientConfig{})
		if err != nil {
			return fmt.Errorf("connect: %w", err)
		}
	}
	return nil
}

// createStream creates a 4-segment stream whose segments sit on 4 distinct
// containers and maps every key to its segment.
func (e *env) createStream(base string) (*stream, error) {
	name := pickStreamName(base)
	ctx := context.Background()
	if err := e.sys.Streams().Create(ctx, pravega.StreamConfig{Scope: scope, Name: name, InitialSegments: segments}); err != nil {
		return nil, fmt.Errorf("create stream %s: %w", name, err)
	}
	segs, err := e.backing.Controller().GetActiveSegments(scope, name)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	for _, s := range segs {
		seen[keyspace.HashToContainer(s.ID.QualifiedName(), containers)] = true
	}
	if len(segs) != segments || len(seen) != segments {
		return nil, fmt.Errorf("stream %s: %d segments on %d containers", name, len(segs), len(seen))
	}
	st := &stream{name: name}
	for _, k := range e.keys {
		h := keyspace.HashKey(k)
		for i, s := range segs {
			if s.KeyRange.Contains(h) {
				st.keySeg = append(st.keySeg, i)
				st.keyNums = append(st.keyNums, s.ID.Number)
				break
			}
		}
	}
	return st, nil
}

func (e *env) lane(st *stream, id uint16, size, window int) (*writerLane, error) {
	return newWriterLane(e.sys, scope, st.name, id, e.seed, size, e.keys, st.keySeg, segments, window, e.log)
}

func (e *env) prepare() error {
	if err := e.sys.Streams().CreateScope(context.Background(), scope); err != nil {
		return fmt.Errorf("create scope: %w", err)
	}
	var err error
	if e.tail, err = e.createStream("tail"); err != nil {
		return err
	}
	for i := 0; i < peakRounds; i++ {
		st, err := e.createStream(fmt.Sprintf("peak%d", i))
		if err != nil {
			return err
		}
		e.peaks = append(e.peaks, st)
		var lanes []*writerLane
		for j := 0; j < e.w.tailWriters; j++ {
			l, err := e.lane(st, uint16(lanePeak+i*e.w.tailWriters+j), tailSize, peakWindow)
			if err != nil {
				return err
			}
			lanes = append(lanes, l)
		}
		e.peakLanes = append(e.peakLanes, lanes)
	}
	e.tailOracle = NewOracle(e.seed)
	for i := 0; i < e.w.tailWriters; i++ {
		tl, err := e.lane(e.tail, uint16(laneTail+i), tailSize, 0)
		if err != nil {
			return err
		}
		e.tailLanes = append(e.tailLanes, tl)
		e.tailOracle.AddLane(tl.id, tailSize, e.tail.keyNums)
	}
	e.tailReaders, err = startReaders(e.sys, "tail-rg", scope, e.tail.name, readers, e.tailOracle, e.log)
	return err
}

// prefill writes the catch-up backlog, tiers it to LTS, and then pushes it
// out of the block cache by writing and tiering twice the cache's size to a
// filler stream on the same containers. Workloads without a backlog skip
// it.
func (e *env) prefill() error {
	if e.w.backlogBytes == 0 {
		return nil
	}
	var err error
	if e.backlog, err = e.createStream("backlog"); err != nil {
		return err
	}
	filler, err := e.createStream("filler")
	if err != nil {
		return err
	}
	perLane := int(e.w.backlogBytes / backlogSize / 2)
	for i := 0; i < 2; i++ {
		l, err := e.lane(e.backlog, uint16(laneBacklog+i), backlogSize, 512)
		if err != nil {
			return err
		}
		e.backlogLanes = append(e.backlogLanes, l)
	}
	runClosedLoop(e.backlogLanes, perLane)
	if err := finishAll(e.backlogLanes); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	if err := e.backing.Cluster().WaitForTiering(time.Minute); err != nil {
		return err
	}
	cacheBytes := int64(e.w.cacheBuffers) * 2 << 20 * containers
	fl, err := e.lane(filler, laneFiller, backlogSize, 512)
	if err != nil {
		return err
	}
	runClosedLoop([]*writerLane{fl}, int(2*cacheBytes/backlogSize))
	if err := fl.finish(); err != nil {
		return fmt.Errorf("evict: %w", err)
	}
	if err := e.backing.Cluster().WaitForTiering(time.Minute); err != nil {
		return err
	}
	return syncDir(filepath.Join(e.dir, "lts"))
}

// syncDir flushes every file under dir to disk, so the kernel is not still
// writing the backlog back while the drains read it.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("sync %s: %w", ent.Name(), err)
		}
	}
	return nil
}

// runClosedLoop sends n events on each lane concurrently and waits for all
// acknowledgements.
func runClosedLoop(lanes []*writerLane, n int) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *writerLane) {
			defer wg.Done()
			l.closedLoop(n)
		}(l)
	}
	wg.Wait()
}

// finishAll closes every lane and returns the first error any of them saw.
func finishAll(lanes []*writerLane) error {
	var first error
	for _, l := range lanes {
		if err := l.finish(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *env) close() {
	if e.tailReaders != nil {
		e.tailReaders.stop()
	}
	lanes := append([]*writerLane(nil), e.tailLanes...)
	for _, round := range e.peakLanes {
		lanes = append(lanes, round...)
	}
	_ = finishAll(lanes)
	if e.sys != nil && e.sys != e.backing {
		e.sys.Close()
	}
	if e.srv != nil {
		_ = e.srv.Close()
	}
	if e.backing != nil {
		e.backing.Close()
	}
	_ = os.RemoveAll(e.dir)
}
