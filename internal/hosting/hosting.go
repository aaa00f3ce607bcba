// Package hosting wires a complete in-process Pravega cluster: the
// coordination store, a bookie ensemble, segment store instances with their
// containers distributed across them, and a long-term storage backend. It
// implements controller.DataPlane and gives clients segment routing. The
// same components can instead be deployed over TCP via cmd/pravega-server
// and internal/wire; hosting is the harness used by tests, examples and the
// benchmark figures.
//
// Container placement is dynamic (§2.2, §4.4): each store's ownership
// manager claims containers with lease-backed ephemeral nodes, and the
// cluster routes through a placement.Router snapshot stamped with the
// placement epoch. Crashing a store orphans its claims; survivors fence
// the WALs and re-acquire. Tests that need to pin a container to a store
// (fault-injection crash schedules) set Ownership.Manual.
package hosting

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
)

// OwnershipConfig tunes dynamic container placement for the cluster.
type OwnershipConfig struct {
	// Manual disables the ownership managers: containers are claimed
	// round-robin at startup and move only via CrashContainer /
	// RestartContainer. Fault-injection crash schedules rely on this — a
	// crashed container must stay down until the test restarts it.
	Manual bool
	// LeaseTTL is each store's claim-lease duration (default 3s). A store
	// that stops renewing loses every claim at once.
	LeaseTTL time.Duration
	// RebalanceInterval is the ownership managers' tick (default 50ms).
	RebalanceInterval time.Duration
	// ResolveWait bounds how long routing helpers wait for a container to
	// have an owner before giving up (default 5s; failover takes up to a
	// lease TTL plus a rebalance tick to resolve).
	ResolveWait time.Duration
}

func (o *OwnershipConfig) defaults() {
	if o.Manual {
		return
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 3 * time.Second
	}
	if o.RebalanceInterval <= 0 {
		o.RebalanceInterval = 50 * time.Millisecond
	}
	if o.ResolveWait <= 0 {
		o.ResolveWait = 5 * time.Second
	}
}

// ClusterConfig sizes an in-process cluster. The defaults mirror Table 1 of
// the paper: 3 segment stores co-located with 3 bookies, replication 3/3/2.
type ClusterConfig struct {
	// Stores is the number of segment store instances (default 3).
	Stores int
	// ContainersPerStore is how many containers each store hosts
	// (default 4).
	ContainersPerStore int
	// Bookies is the bookie count (default 3).
	Bookies int
	// Replication configures ledger quorums (default 3/3/2).
	Replication bookkeeper.ReplicationConfig
	// Ownership tunes dynamic container placement and failover.
	Ownership OwnershipConfig
	// Profile, when non-nil, enables the simulated performance substrate:
	// bookie journals on modelled NVMe drives, shaped replica links, and a
	// modelled LTS unless LTS is set explicitly.
	Profile *sim.Profile
	// NoSyncJournal disables journal fsyncs ("Pravega no flush", §5.2).
	NoSyncJournal bool
	// DiscardData keeps only sizes in bookies (benchmark memory bound).
	DiscardData bool
	// LTS overrides the long-term storage backend (default lts.Memory, or
	// a Sim-wrapped NoOp store when Profile is set).
	LTS lts.ChunkStorage
	// Container overrides container tuning fields (ID/BK/Meta/LTS/
	// Replication are filled in by the cluster). Container.Hooks, when set,
	// flows into every hosted container — including ones started later via
	// RestartContainer — which is how fault-injection schedules persist
	// across crash/restart cycles.
	Container segstore.ContainerConfig
	// WrapBookie, when non-nil, decorates each bookie before it is
	// registered with the ledger client (fault injection: failed appends,
	// dropped acks, fencing errors).
	WrapBookie func(bookkeeper.Node) bookkeeper.Node
}

func (c *ClusterConfig) defaults() {
	if c.Stores <= 0 {
		c.Stores = 3
	}
	if c.ContainersPerStore <= 0 {
		c.ContainersPerStore = 4
	}
	if c.Bookies <= 0 {
		c.Bookies = 3
	}
	if c.Replication.Ensemble == 0 {
		c.Replication = bookkeeper.DefaultReplication()
	}
	c.Ownership.defaults()
}

// owners maps container id -> owning store: the table the cluster's
// placement router snapshots.
type owners = map[int]*segstore.Store

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg  ClusterConfig
	Meta *cluster.Store
	BK   *bookkeeper.Client
	LTS  lts.ChunkStorage

	bookies []*bookkeeper.Bookie
	disks   []*sim.Disk
	total   int

	mu         sync.Mutex
	stores     []*segstore.Store
	storesByID map[string]*segstore.Store
	mgrs       map[string]*segstore.OwnershipManager

	router *placement.Router[owners]
}

// NewCluster builds and starts the deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	meta := cluster.NewStore()

	var linkCfg sim.LinkConfig
	if cfg.Profile != nil {
		linkCfg = cfg.Profile.ReplicaLink
	}
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta, Link: linkCfg})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:        cfg,
		Meta:       meta,
		BK:         bk,
		storesByID: make(map[string]*segstore.Store),
		mgrs:       make(map[string]*segstore.OwnershipManager),
		total:      cfg.Stores * cfg.ContainersPerStore,
	}
	cl.router = placement.New(&placement.Snapshot[owners]{}, cl.fetchPlacement)

	for i := 0; i < cfg.Bookies; i++ {
		bcfg := bookkeeper.BookieConfig{
			ID:          fmt.Sprintf("bookie-%d", i),
			NoSync:      cfg.NoSyncJournal,
			DiscardData: cfg.DiscardData,
		}
		if cfg.Profile != nil {
			d := sim.NewDisk(cfg.Profile.Disk)
			cl.disks = append(cl.disks, d)
			bcfg.Journal = d.OpenFile("journal")
		}
		b := bookkeeper.NewBookie(bcfg)
		cl.bookies = append(cl.bookies, b)
		var node bookkeeper.Node = b
		if cfg.WrapBookie != nil {
			node = cfg.WrapBookie(b)
		}
		bk.RegisterBookie(node)
	}

	cl.LTS = cfg.LTS
	if cl.LTS == nil {
		if cfg.Profile != nil {
			var inner lts.ChunkStorage = lts.NewMemory()
			if cfg.DiscardData {
				inner = lts.NewNoOp()
			}
			cl.LTS = lts.NewSim(inner, cfg.Profile.LTS)
		} else {
			cl.LTS = lts.NewMemory()
		}
	}

	for si := 0; si < cfg.Stores; si++ {
		if _, err := cl.addStoreLocked(); err != nil {
			cl.Close()
			return nil, err
		}
	}

	if cfg.Ownership.Manual {
		// Static round-robin placement; claims recorded but never rebalanced.
		for si, st := range cl.stores {
			for k := 0; k < cfg.ContainersPerStore; k++ {
				if _, err := st.StartContainer(si*cfg.ContainersPerStore + k); err != nil {
					cl.Close()
					return nil, err
				}
			}
		}
	} else {
		// All hosts are registered; a few synchronous rebalance rounds
		// converge the claim set before anything serves traffic, then the
		// managers take over in the background.
		if err := cl.convergeLocked(); err != nil {
			cl.Close()
			return nil, err
		}
		for _, m := range cl.mgrs {
			m.Run()
		}
	}
	cl.refresh()
	go cl.router.Watch(func(done <-chan struct{}, known int64) (int64, error) {
		return placement.AwaitEpoch(cl.Meta, known, done, 0)
	})
	return cl, nil
}

// addStoreLocked creates one store (and, in dynamic mode, its ownership
// manager) and appends it to the cluster. Callers hold no locks during
// NewCluster; AddStore takes cl.mu.
func (cl *Cluster) addStoreLocked() (*segstore.Store, error) {
	ccfg := cl.cfg.Container
	ccfg.BK = cl.BK
	ccfg.Meta = cl.Meta
	ccfg.Replication = cl.cfg.Replication
	ccfg.LTS = cl.LTS
	var ttl time.Duration
	if !cl.cfg.Ownership.Manual {
		ttl = cl.cfg.Ownership.LeaseTTL
	}
	id := fmt.Sprintf("segmentstore-%d", len(cl.stores))
	for {
		if _, taken := cl.storesByID[id]; !taken {
			break
		}
		id += "r" // restarted replacement for a crashed id
	}
	st, err := segstore.NewStore(segstore.StoreConfig{
		ID:              id,
		TotalContainers: cl.total,
		Container:       ccfg,
		Cluster:         cl.Meta,
		LeaseTTL:        ttl,
	})
	if err != nil {
		return nil, err
	}
	cl.stores = append(cl.stores, st)
	cl.storesByID[id] = st
	if cl.cfg.Ownership.Manual {
		// Registered for ClusterInfo, which lists stores from the live hosts.
		return st, st.RegisterHost("")
	}
	m, err := segstore.StartOwnershipManager(st, segstore.OwnershipConfig{
		RebalanceInterval: cl.cfg.Ownership.RebalanceInterval,
	})
	if err != nil {
		return nil, err
	}
	cl.mgrs[id] = m
	return st, nil
}

// convergeLocked runs synchronous rebalance rounds until every container is
// claimed (bounded; one round normally suffices since every store claims
// its preferred set without contention).
func (cl *Cluster) convergeLocked() error {
	for round := 0; round < 20; round++ {
		for _, m := range cl.mgrs {
			if err := m.RebalanceOnce(); err != nil {
				return err
			}
		}
		claims, err := segstore.ClaimedContainers(cl.Meta)
		if err != nil {
			return err
		}
		if len(claims) == cl.total {
			return nil
		}
	}
	return errors.New("hosting: placement did not converge")
}

// AddStore adds a segment store to a running dynamic cluster; the
// rebalancer sheds load onto it. Returns the new store.
func (cl *Cluster) AddStore() (*segstore.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	st, err := cl.addStoreLocked()
	if err != nil {
		return nil, err
	}
	if m, ok := cl.mgrs[st.ID()]; ok {
		m.Run()
	}
	return st, nil
}

// CrashStore abruptly kills one store: its containers stop without
// flushing and its claims vanish with its session; survivors' managers
// fence the WALs and re-acquire (§4.4).
func (cl *Cluster) CrashStore(i int) error {
	cl.mu.Lock()
	if i < 0 || i >= len(cl.stores) {
		cl.mu.Unlock()
		return errors.New("hosting: bad store index")
	}
	st := cl.stores[i]
	cl.mu.Unlock()
	st.Crash()
	cl.refresh()
	return nil
}

// WedgeStore stops a store's ownership manager without stopping the store:
// the store keeps serving but stops renewing its lease, so its claims
// expire and survivors take over while the zombie still answers — the
// fencing stress case. Returns the wedged store.
func (cl *Cluster) WedgeStore(i int) (*segstore.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.stores) {
		return nil, errors.New("hosting: bad store index")
	}
	st := cl.stores[i]
	if m, ok := cl.mgrs[st.ID()]; ok {
		m.Stop()
	}
	return st, nil
}

// TotalContainers returns the cluster-wide container count.
func (cl *Cluster) TotalContainers() int { return cl.total }

// Stores returns a snapshot of the segment store instances.
func (cl *Cluster) Stores() []*segstore.Store {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*segstore.Store, len(cl.stores))
	copy(out, cl.stores)
	return out
}

// Bookies returns the bookie instances (failure injection).
func (cl *Cluster) Bookies() []*bookkeeper.Bookie { return cl.bookies }

// PlacementEpoch returns the current cluster placement epoch.
func (cl *Cluster) PlacementEpoch() int64 { return segstore.PlacementEpoch(cl.Meta) }

// refresh re-reads the claim set now rather than when the epoch watch
// catches up, for callers that just changed it.
func (cl *Cluster) refresh() *placement.Snapshot[owners] {
	snap, _ := cl.router.Refresh(cl.router.Load().Epoch)
	return snap
}

// fetchPlacement builds a snapshot from the live claim set. The epoch is
// read first, so the snapshot is never stamped newer than its claims.
func (cl *Cluster) fetchPlacement() (*placement.Snapshot[owners], error) {
	epoch := segstore.PlacementEpoch(cl.Meta)
	claims, err := segstore.ClaimedContainers(cl.Meta)
	if err != nil {
		return nil, err
	}
	t := make(owners, len(claims))
	cl.mu.Lock()
	for id, host := range claims {
		if st, ok := cl.storesByID[host]; ok {
			t[id] = st
		}
	}
	cl.mu.Unlock()
	return &placement.Snapshot[owners]{Epoch: epoch, Table: t}, nil
}

// StoreForContainer resolves a container id to its current owner. It is
// fail-fast: a miss refreshes the snapshot once and then reports
// client.ErrWrongHost (the caller retries, or surfaces the code to a
// remote client which does the same).
func (cl *Cluster) StoreForContainer(id int) (*segstore.Store, error) {
	snap := cl.router.Load()
	if st, ok := snap.Table[id]; ok {
		return st, nil
	}
	snap, _ = cl.router.Refresh(snap.Epoch)
	if st, ok := snap.Table[id]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("hosting: container %d has no owner (epoch %d): %w", id, snap.Epoch, client.ErrWrongHost)
}

// StoreFor routes a qualified segment name to its owning store. Transaction
// segments route by their parent's name, keeping shadow and parent in the
// same container.
func (cl *Cluster) StoreFor(name string) (*segstore.Store, error) {
	return cl.StoreForContainer(keyspace.HashToContainer(segment.RoutingName(name), cl.total))
}

// ContainerFor routes a qualified segment name to its owning container.
func (cl *Cluster) ContainerFor(name string) (*segstore.Container, error) {
	st, err := cl.StoreFor(name)
	if err != nil {
		return nil, err
	}
	c, err := st.Container(name)
	if err != nil {
		// The claim moved between resolution and the call; refresh so the
		// next attempt routes correctly.
		cl.refresh()
		return nil, err
	}
	return c, nil
}

// onStore runs op on the store owning name through retry.
func (cl *Cluster) onStore(idempotent bool, name string, op func(*segstore.Store) error) error {
	return cl.retry(context.Background(), idempotent, func() error {
		st, err := cl.StoreFor(name)
		if err != nil {
			return err
		}
		return op(st)
	})
}

// retry runs op through the placement router for up to
// Ownership.ResolveWait, riding out the moment mid-failover when a claim is
// unowned. Only idempotent operations retry errors that may follow a
// partial start (container shut down mid-call, zombie WAL fenced).
func (cl *Cluster) retry(ctx context.Context, idempotent bool, op func() error) error {
	_, err := cl.router.Retry(ctx, cl.cfg.Ownership.ResolveWait, idempotent,
		func(*placement.Snapshot[owners]) error { return op() })
	return err
}

// Close shuts everything down.
func (cl *Cluster) Close() {
	cl.router.Close()
	for _, st := range cl.Stores() {
		_ = st.Close()
	}
	for _, b := range cl.bookies {
		b.Close()
	}
	for _, d := range cl.disks {
		d.Close()
	}
}

var _ controller.DataPlane = (*Cluster)(nil)

// CreateSegment implements controller.DataPlane.
func (cl *Cluster) CreateSegment(name string) error {
	return cl.onStore(false, name, func(st *segstore.Store) error { return st.CreateSegment(name) })
}

// SealSegment implements controller.DataPlane.
func (cl *Cluster) SealSegment(name string) (int64, error) {
	var n int64
	err := cl.onStore(false, name, func(st *segstore.Store) (err error) {
		n, err = st.Seal(name)
		return err
	})
	return n, err
}

// TruncateSegment implements controller.DataPlane.
func (cl *Cluster) TruncateSegment(name string, offset int64) error {
	return cl.onStore(false, name, func(st *segstore.Store) error { return st.Truncate(name, offset) })
}

// DeleteSegment implements controller.DataPlane.
func (cl *Cluster) DeleteSegment(name string) error {
	return cl.onStore(false, name, func(st *segstore.Store) error { return st.DeleteSegment(name) })
}

// MergeSegment implements controller.DataPlane: it atomically folds the
// sealed source segment into the target (transaction commit, §3.2).
func (cl *Cluster) MergeSegment(target, source string) error {
	_, err := cl.MergeSegmentAt(target, source)
	return err
}

// MergeSegmentAt merges the sealed source segment into the target and
// returns the target offset at which the merged bytes begin.
//
// A transaction's shadow segment routes with its parent, so the common case
// is container-local and uses the single-WAL-op atomic merge. When a scale
// sealed the parent mid-transaction, the commit target is a successor that
// may hash to a different container (or store); the merge then degrades to
// copy-and-delete: the source's sealed bytes land in the target through one
// append (readers still observe all of them or none), under a writer
// identity derived from the source name so the append pipeline's
// (writer, event) dedup makes a retry after a crash between copy and delete
// idempotent, and only then is the source deleted. A dedup-short-circuited
// retry reports offset -1.
func (cl *Cluster) MergeSegmentAt(target, source string) (int64, error) {
	var off int64
	err := cl.retry(context.Background(), false, func() error {
		var err error
		off, err = cl.mergeSegmentAtOnce(target, source)
		return err
	})
	return off, err
}

func (cl *Cluster) mergeSegmentAtOnce(target, source string) (int64, error) {
	tst, err := cl.StoreFor(target)
	if err != nil {
		return 0, err
	}
	sst, err := cl.StoreFor(source)
	if err != nil {
		return 0, err
	}
	if tst == sst {
		tc, err := tst.Container(target)
		if err != nil {
			return 0, err
		}
		sc, err := tst.Container(source)
		if err != nil {
			return 0, err
		}
		if tc == sc {
			return tst.MergeSegment(target, source)
		}
	}

	info, err := sst.GetInfo(source)
	if err != nil {
		return 0, err
	}
	if !info.Sealed {
		return 0, fmt.Errorf("%w: merge source %s", segstore.ErrSegmentNotSealed, source)
	}
	data := make([]byte, 0, info.Length-info.StartOffset)
	for off := info.StartOffset; off < info.Length; {
		res, err := sst.Read(source, off, int(info.Length-off), 0)
		if err != nil {
			return 0, err
		}
		if len(res.Data) == 0 {
			return 0, fmt.Errorf("hosting: merge read of %s stalled at offset %d", source, off)
		}
		data = append(data, res.Data...)
		off += int64(len(res.Data))
	}
	var off int64 = -1
	if len(data) > 0 {
		off, err = tst.Append(target, data, "txn-merge#"+source, 1, 1)
		if err != nil {
			return 0, err
		}
	}
	if err := sst.DeleteSegment(source); err != nil && !errors.Is(err, segstore.ErrSegmentNotFound) {
		return 0, err
	}
	return off, nil
}

// SegmentInfo implements controller.DataPlane.
func (cl *Cluster) SegmentInfo(name string) (segment.Info, error) {
	var info segment.Info
	err := cl.onStore(true, name, func(st *segstore.Store) (err error) {
		info, err = st.GetInfo(name)
		return err
	})
	return info, err
}

// OwnerOf implements controller.DataPlane.
func (cl *Cluster) OwnerOf(name string) (string, error) {
	st, err := cl.StoreFor(name)
	if err != nil {
		return "", err
	}
	return st.ID(), nil
}

// LoadReports implements controller.DataPlane.
func (cl *Cluster) LoadReports() []segstore.SegmentLoad {
	var out []segstore.SegmentLoad
	for _, st := range cl.Stores() {
		if st.Closed() {
			continue
		}
		out = append(out, st.LoadReport()...)
	}
	return out
}

// LoadByStore aggregates byte rates per store instance (Fig. 13's
// per-segment-store workload view).
func (cl *Cluster) LoadByStore() map[string]float64 {
	stores := cl.Stores()
	out := make(map[string]float64, len(stores))
	for _, st := range stores {
		if st.Closed() {
			continue
		}
		var sum float64
		for _, l := range st.LoadReport() {
			sum += l.BytesPerSec
		}
		out[st.ID()] = sum
	}
	return out
}

// CrashContainer abruptly stops one container wherever it is hosted (fault
// injection): no flush, no checkpoint, claim released, WAL handle left open
// for the next instance to fence. Restart it with RestartContainer. Only
// meaningful under Ownership.Manual — a live rebalancer would immediately
// re-acquire the container.
func (cl *Cluster) CrashContainer(containerID int) error {
	st, err := cl.StoreForContainer(containerID)
	if err != nil {
		return fmt.Errorf("hosting: container %d has no home", containerID)
	}
	if err := st.CrashContainer(containerID); err != nil {
		return err
	}
	cl.refresh()
	return nil
}

// RestartContainer simulates recovery of a crashed container on a given
// store (tests). The container must not be running anywhere.
func (cl *Cluster) RestartContainer(storeIdx, containerID int) error {
	cl.mu.Lock()
	if storeIdx < 0 || storeIdx >= len(cl.stores) {
		cl.mu.Unlock()
		return errors.New("hosting: bad store index")
	}
	st := cl.stores[storeIdx]
	cl.mu.Unlock()
	if _, err := st.StartContainer(containerID); err != nil {
		return err
	}
	cl.refresh()
	return nil
}

// AwaitConverged blocks until every container has an owner (and the
// placement cache reflects it) or the timeout elapses.
func (cl *Cluster) AwaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		t := cl.refresh().Table
		if len(t) == cl.total {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("hosting: %d/%d containers owned after %v", len(t), cl.total, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FlushAll forces every live container's unflushed data to LTS (graceful
// drain path for cmd/pravega-server).
func (cl *Cluster) FlushAll() error {
	var firstErr error
	for _, st := range cl.Stores() {
		if st.Closed() {
			continue
		}
		for _, id := range st.HostedContainers() {
			c, err := st.ContainerByID(id)
			if err != nil {
				continue
			}
			if err := c.FlushAll(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// WaitForTiering blocks until every container has no un-tiered backlog or
// the timeout elapses. On timeout the returned error wraps the first
// container-level flush error it finds, so a persistently failing LTS
// surfaces its cause instead of a silent deadline (§4.3 backpressure is
// meant to be observable).
func (cl *Cluster) WaitForTiering(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		pending := int64(0)
		for _, st := range cl.Stores() {
			if st.Closed() {
				continue
			}
			for _, id := range st.HostedContainers() {
				c, err := st.ContainerByID(id)
				if err != nil {
					continue
				}
				pending += c.Stats().UnflushedBytes
			}
		}
		if pending == 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, st := range cl.Stores() {
		if st.Closed() {
			continue
		}
		for _, id := range st.HostedContainers() {
			c, err := st.ContainerByID(id)
			if err != nil {
				continue
			}
			if ferr := c.LastFlushError(); ferr != nil {
				return fmt.Errorf("hosting: tiering did not drain within %v: %w", timeout, ferr)
			}
		}
	}
	return fmt.Errorf("hosting: tiering did not drain within %v", timeout)
}
