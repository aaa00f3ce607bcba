package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Process-wide series for the wire protocol client.
var (
	mcConnections = obs.Default().Gauge("pravega_wire_client_connections",
		"Live server connections held by wire clients")
	mcReconnects = obs.Default().Counter("pravega_wire_client_reconnects_total",
		"Successful reconnects after a lost server connection")
	mcInflightAppends = obs.Default().Gauge("pravega_wire_client_inflight_appends",
		"Appends sent and not yet acknowledged")
	mcAppendRTT = obs.Default().Histogram("pravega_wire_client_append_rtt_us",
		"Append round-trip time (µs), send to acknowledgement")
	mcLongPolls = obs.Default().Gauge("pravega_wire_client_longpoll_reads",
		"Long-poll reads waiting on the server")
	mcPlacementRefreshes = obs.Default().Counter("pravega_wire_client_placement_refreshes_total",
		"Cluster-info refreshes triggered by wrong-host replies or epoch staleness")
	mcWrongHostRetries = obs.Default().Counter("pravega_wire_client_wrong_host_retries_total",
		"Synchronous operations re-routed after a wrong-host reply")
)

// ClientConfig tunes the remote transport.
type ClientConfig struct {
	// MinBackoff/MaxBackoff bound the reconnect backoff (capped exponential,
	// defaults 5ms and 1s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// SyncRetryWindow is how long synchronous operations (reads, metadata,
	// control plane) keep retrying across a lost connection before failing
	// with client.ErrDisconnected (default 15s). Async appends never retry
	// internally: the event writer owns retry, because only it can replay
	// batches verbatim and preserve exactly-once dedup (§3.2).
	SyncRetryWindow time.Duration
}

func (c *ClientConfig) defaults() {
	if c.MinBackoff <= 0 {
		c.MinBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.SyncRetryWindow <= 0 {
		c.SyncRetryWindow = 15 * time.Second
	}
}

// Client is the remote transport: it implements both client.DataTransport
// and client.ControlTransport over the wire protocol. Like the in-process
// path, it routes each segment to the store hosting its container and
// keeps one pipelined connection per store (plus one for the control
// plane), so appends to different stores never queue behind each other.
// Lost connections reconnect in the background with capped exponential
// backoff; in-flight operations on the lost connection fail with
// client.ErrDisconnected.
type Client struct {
	addr string
	cfg  ClientConfig

	// router holds the placement snapshot (ClusterInfo + epoch), read
	// lock-free on the append path. It refreshes over the control
	// connection; a RemotePlane's refreshes read the coordination store.
	router *placement.Router[ClusterInfo]

	ctrl *storeConn

	// poolMu guards the store-connection pool, which adopt fits to each
	// placement snapshot.
	poolMu sync.Mutex
	stores []*storeConn

	// dial overrides the transport dialer (fault-injection tests count and
	// script dials through it); nil means Dial.
	dial func(addr string) (*Conn, error)
}

// dialServer opens one connection to the given address through the
// configured dialer.
func (c *Client) dialServer(addr string) (*Conn, error) {
	if c.dial != nil {
		return c.dial(addr)
	}
	return Dial(addr)
}

// storeAddr resolves the address of store index i from a snapshot: the
// multi-process cluster advertises one address per store (StoreAddrs); the
// single-process server serves every store behind the bootstrap address.
func (c *Client) storeAddr(info *ClusterInfo, i int) string {
	if i < len(info.StoreAddrs) && info.StoreAddrs[i] != "" {
		return info.StoreAddrs[i]
	}
	return c.addr
}

var (
	_ client.DataTransport    = (*Client)(nil)
	_ client.ControlTransport = (*Client)(nil)
)

// decodeClusterInfo parses and validates a MsgClusterInfo reply.
func decodeClusterInfo(rep Reply) (ClusterInfo, error) {
	var info ClusterInfo
	if err := json.Unmarshal(rep.JSON, &info); err != nil {
		return ClusterInfo{}, fmt.Errorf("wire: cluster info: %w", err)
	}
	if info.Stores <= 0 || info.TotalContainers <= 0 {
		return ClusterInfo{}, fmt.Errorf("wire: bad cluster info (%d stores, %d containers)", info.Stores, info.TotalContainers)
	}
	return info, nil
}

// NewClient dials addr, discovers the cluster layout, and opens one
// connection per segment store.
func NewClient(addr string, cfg ClientConfig) (*Client, error) {
	cfg.defaults()
	ctrlConn, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	rep, err := ctrlConn.Call(MsgClusterInfo, struct{}{})
	if err != nil {
		_ = ctrlConn.Close()
		return nil, fmt.Errorf("wire: cluster info: %w", err)
	}
	info, err := decodeClusterInfo(rep)
	if err != nil {
		_ = ctrlConn.Close()
		return nil, err
	}
	c := &Client{addr: addr, cfg: cfg}
	c.ctrl = newStoreConn(c, ctrlConn, addr)
	initial, err := c.adopt(info)
	if err != nil {
		c.ctrl.close()
		c.closePool()
		return nil, err
	}
	c.router = placement.New(initial, c.fetchPlacement)
	go c.router.Watch(c.awaitEpoch)
	return c, nil
}

// fetchPlacement re-requests ClusterInfo for the router. The control
// connection carries the request, so a refresh never dials a connection
// that already exists, which is how a placement refresh avoids turning
// into a reconnect storm.
func (c *Client) fetchPlacement() (*placement.Snapshot[ClusterInfo], error) {
	rep, err := c.ctrl.call(MsgClusterInfo, struct{}{})
	if err != nil {
		return nil, err
	}
	info, err := decodeClusterInfo(rep)
	if err != nil {
		return nil, err
	}
	mcPlacementRefreshes.Inc()
	return c.adopt(info)
}

// adopt fits the store-connection pool to info and returns the snapshot
// routing on it. The pool grows (by dialing) only when the store count
// grew.
func (c *Client) adopt(info ClusterInfo) (*placement.Snapshot[ClusterInfo], error) {
	c.poolMu.Lock()
	for len(c.stores) < info.Stores {
		saddr := c.storeAddr(&info, len(c.stores))
		conn, derr := c.dialServer(saddr)
		if derr != nil {
			c.poolMu.Unlock()
			return nil, derr
		}
		c.stores = append(c.stores, newStoreConn(c, conn, saddr))
	}
	var drop []*storeConn
	if len(info.StoreAddrs) > 0 {
		// Multi-process placement: store identities are addresses, so the
		// pool must track them. A replaced address re-points that slot's
		// connection (it redials lazily); a shrunken cluster trims the tail.
		for i := 0; i < len(c.stores) && i < info.Stores; i++ {
			c.stores[i].setAddr(c.storeAddr(&info, i))
		}
		for len(c.stores) > info.Stores {
			drop = append(drop, c.stores[len(c.stores)-1])
			c.stores = c.stores[:len(c.stores)-1]
		}
	}
	c.poolMu.Unlock()
	for _, sc := range drop {
		sc.close()
	}
	return &placement.Snapshot[ClusterInfo]{Epoch: info.Epoch, Table: info}, nil
}

// awaitEpoch long-polls the server's placement epoch for the router's
// watch. This is what lets an IDLE reader re-pin to the new owner after a
// failover proactively, instead of discovering the move via a wrong-host
// round trip on its next read.
func (c *Client) awaitEpoch(_ <-chan struct{}, known int64) (int64, error) {
	rep, err := c.ctrl.call(MsgWatchEpoch, EpochReq{Known: known})
	if err != nil && !placement.IsDisconnect(err) {
		// The server doesn't serve epoch watches: wrong-host replies alone
		// drive refreshes for this client's lifetime.
		return 0, fmt.Errorf("wire: epoch watch: %v: %w", err, errors.ErrUnsupported)
	}
	return rep.Offset, err
}

// Close tears down every connection. In-flight operations fail with
// client.ErrDisconnected.
func (c *Client) Close() error {
	c.router.Close()
	if c.ctrl != nil {
		c.ctrl.close()
	}
	c.closePool()
	return nil
}

// pool returns a copy of the store-connection pool.
func (c *Client) pool() []*storeConn {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	return append([]*storeConn(nil), c.stores...)
}

func (c *Client) closePool() {
	for _, sc := range c.pool() {
		sc.close()
	}
}

// storeFor routes a qualified segment name to its store's connection using
// placement snapshot s, the same hash the server-side cluster uses
// (transaction segments route by their parent's name). A container with no
// known home (mid-failover snapshot) routes by container id — the server
// resolves ownership per request anyway, and a wrong-host reply triggers a
// refresh.
//
// It returns nil while the pool is empty, which only a RemotePlane whose
// cluster has no live store yet can see.
func (c *Client) storeFor(s *placement.Snapshot[ClusterInfo], name string) *storeConn {
	id := keyspace.HashToContainer(segment.RoutingName(name), s.Table.TotalContainers)
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if len(c.stores) == 0 {
		return nil
	}
	si, ok := s.Table.ContainerHome[id]
	if !ok || si < 0 || si >= len(c.stores) {
		si = id % len(c.stores)
	}
	return c.stores[si]
}

// storeConn owns one connection to one server process and its reconnect
// loop.
type storeConn struct {
	c      *Client
	mu     sync.Mutex
	addr   string // server address this slot dials (can move on rebalance)
	conn   *Conn  // nil while disconnected
	redial bool   // reconnect loop running
	closed bool
	// ready broadcasts state changes to acquire waiters: it is an open
	// channel while disconnected (replaced on every fault) and closed the
	// moment the connection is live again or the storeConn closes, so
	// waiters wake immediately instead of polling.
	ready chan struct{}

	// unresolved counts appends submitted through this slot whose callback
	// has not returned; settled is signalled when it drops to zero. A
	// replacement connection is published only at zero: the event writer
	// must have parked every append the old connection lost before a later
	// append to the same segment can go out, or the later one could be
	// applied first and the writer's replay would take the lost one for
	// applied (§3.2).
	unresolved atomic.Int64
	settled    chan struct{}
}

func newStoreConn(c *Client, conn *Conn, addr string) *storeConn {
	mcConnections.Add(1)
	ready := make(chan struct{})
	close(ready) // born connected
	return &storeConn{c: c, conn: conn, addr: addr, ready: ready, settled: make(chan struct{}, 1)}
}

// resolved records that one append's callback has returned.
func (sc *storeConn) resolved() {
	if sc.unresolved.Add(-1) == 0 {
		select {
		case sc.settled <- struct{}{}:
		default:
		}
	}
}

// currentAddr returns the address this slot dials.
func (sc *storeConn) currentAddr() string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.addr
}

// setAddr re-points the slot at a new server address (placement refresh
// after a rebalance or store replacement). The live connection to the old
// address is faulted so the reconnect loop redials the new one.
func (sc *storeConn) setAddr(addr string) {
	sc.mu.Lock()
	if sc.addr == addr || sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.addr = addr
	conn := sc.conn
	sc.mu.Unlock()
	if conn != nil {
		sc.fault(conn)
	}
}

func (sc *storeConn) close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	conn := sc.conn
	sc.conn = nil
	if conn == nil {
		// Disconnected: ready is open and waiters are parked on it; wake
		// them so they observe the close. (While connected, ready is
		// already closed.)
		close(sc.ready)
	}
	sc.mu.Unlock()
	if conn != nil {
		mcConnections.Add(-1)
		_ = conn.Close()
	}
}

// isClosed reports whether the slot was closed for good.
func (sc *storeConn) isClosed() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closed
}

// current returns the live connection, or nil while disconnected.
func (sc *storeConn) current() *Conn {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.conn
}

// fault reports that conn failed. The first reporter tears it down and
// starts the reconnect loop; duplicates (every in-flight op on the
// connection observes the same failure) are no-ops.
func (sc *storeConn) fault(conn *Conn) {
	if conn == nil {
		return
	}
	sc.mu.Lock()
	if sc.conn != conn {
		sc.mu.Unlock()
		return
	}
	sc.conn = nil
	sc.ready = make(chan struct{}) // re-open: waiters park here until reconnect
	start := !sc.redial && !sc.closed
	if start {
		sc.redial = true
	}
	sc.mu.Unlock()
	mcConnections.Add(-1)
	_ = conn.Close()
	if start {
		go sc.reconnectLoop()
	}
}

// reconnectLoop redials with capped exponential backoff until it succeeds
// or the client closes.
func (sc *storeConn) reconnectLoop() {
	backoff := sc.c.cfg.MinBackoff
	if backoff <= 0 {
		// A zero MinBackoff must not turn the dial loop into a busy spin
		// against a dead endpoint (0*2 is still 0).
		backoff = time.Millisecond
	}
	for {
		sc.mu.Lock()
		if sc.closed {
			sc.redial = false
			sc.mu.Unlock()
			return
		}
		addr := sc.addr
		sc.mu.Unlock()
		conn, err := sc.c.dialServer(addr)
		if err == nil {
			if sc.currentAddr() != addr {
				// The slot moved while we were dialing: drop this connection
				// and dial the new address instead.
				_ = conn.Close()
				continue
			}
			for sc.unresolved.Load() > 0 {
				<-sc.settled
			}
			sc.mu.Lock()
			sc.redial = false
			if sc.closed {
				sc.mu.Unlock()
				_ = conn.Close()
				return
			}
			sc.conn = conn
			close(sc.ready) // wake every acquire waiter at once
			sc.mu.Unlock()
			mcConnections.Add(1)
			mcReconnects.Inc()
			return
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > sc.c.cfg.MaxBackoff {
			backoff = sc.c.cfg.MaxBackoff
		}
	}
}

// acquire waits for a live connection until the deadline (and ctx, when
// non-nil) allows. Waiters park on the ready broadcast channel, so a
// reconnect (or close) wakes them immediately rather than after a poll
// interval.
func (sc *storeConn) acquire(ctx context.Context, deadline time.Time) (*Conn, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		sc.mu.Lock()
		conn, closed, ready := sc.conn, sc.closed, sc.ready
		sc.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("wire: client closed: %w", client.ErrDisconnected)
		}
		if conn != nil {
			return conn, nil
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("wire: %s unreachable: %w", sc.currentAddr(), client.ErrDisconnected)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ready:
			timer.Stop()
		case <-ctxDone:
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
			return nil, fmt.Errorf("wire: %s unreachable: %w", sc.currentAddr(), client.ErrDisconnected)
		}
	}
}

func disconnected(err error) error {
	if errors.Is(err, client.ErrDisconnected) {
		return err
	}
	return fmt.Errorf("%w: %v", client.ErrDisconnected, err)
}

// call performs one synchronous request on this connection, retrying
// across connection loss within the sync retry window. It carries the
// requests that placement does not route: the control plane, cluster info
// and epoch watches, and the coordination and bookie planes.
func (sc *storeConn) call(t MessageType, body any) (Reply, error) {
	deadline := time.Now().Add(sc.c.cfg.SyncRetryWindow)
	for {
		conn, err := sc.acquire(nil, deadline)
		if err != nil {
			return Reply{}, err
		}
		rep, err := conn.Call(t, body)
		if placement.IsDisconnect(err) {
			sc.fault(conn)
			if time.Now().Before(deadline) {
				continue
			}
			return Reply{}, disconnected(err)
		}
		return rep, err
	}
}

// segCall performs one synchronous segment operation through the placement
// router: each attempt routes on the current snapshot and waits, until the
// sync retry window ends, for that store's connection. Wrong-host replies
// and lost connections are retried (placement.Retry); ambiguous reports
// whether an attempt died with the request sent.
func (c *Client) segCall(ctx context.Context, name string, t MessageType, body any) (rep Reply, ambiguous bool, err error) {
	deadline := time.Now().Add(c.cfg.SyncRetryWindow)
	ambiguous, err = c.router.Retry(ctx, c.cfg.SyncRetryWindow, true, func(s *placement.Snapshot[ClusterInfo]) error {
		rep, err = c.attempt(ctx, s, deadline, name, t, body)
		return err
	})
	return rep, ambiguous, err
}

// attempt sends one request to the store owning name in snapshot s. Reads
// go out as cancellable long polls: when ctx is done the client sends a
// cancel for the in-flight request and the server-side wait unblocks
// immediately.
func (c *Client) attempt(ctx context.Context, s *placement.Snapshot[ClusterInfo], deadline time.Time, name string, t MessageType, body any) (Reply, error) {
	sc := c.storeFor(s, name)
	if sc == nil {
		return Reply{}, fmt.Errorf("wire: no store serves %s (epoch %d): %w", name, s.Epoch, client.ErrWrongHost)
	}
	conn, err := sc.acquire(ctx, deadline)
	if err != nil {
		return Reply{}, err
	}
	ch, id, err := conn.CallAsync(t, body)
	if err == nil {
		if t == MsgRead {
			mcLongPolls.Add(1)
			defer mcLongPolls.Add(-1)
		}
		var rep Reply
		select {
		case rep = <-ch:
		case <-ctx.Done():
			// The original request always completes (cancellation error, or
			// failAll on connection loss), so this drain cannot hang.
			conn.Cancel(id)
			<-ch
			return Reply{}, ctx.Err()
		}
		err = ReplyError(rep)
		if err == nil {
			return rep, nil
		}
	}
	if placement.IsDisconnect(err) {
		sc.fault(conn)
		return Reply{}, disconnected(err)
	}
	if errors.Is(err, client.ErrWrongHost) {
		mcWrongHostRetries.Inc()
	}
	return Reply{}, err
}

// --- client.DataTransport ---

// AppendAsync pipelines an append on the segment's store connection. It
// fails fast on a lost connection — no internal retry — because replaying
// is the event writer's job: it must resend the original batches verbatim
// for server-side dedup to recognize them (§3.2).
func (c *Client) AppendAsync(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	snap := c.router.Load()
	sc := c.storeFor(snap, name)
	sc.unresolved.Add(1)
	conn := sc.current()
	if conn == nil {
		// Deliver on a goroutine: callers may invoke AppendAsync holding the
		// lock their callback takes.
		go func() {
			cb(segstore.AppendResult{Offset: -1, Err: fmt.Errorf("wire: %s: %w", c.addr, client.ErrDisconnected)})
			sc.resolved()
		}()
		return
	}
	req := AppendReq{
		Segment: name, Data: data, WriterID: writerID,
		EventNum: eventNum, EventCount: eventCount, CondOffset: -1,
	}
	start := time.Now()
	mcInflightAppends.Add(1)
	err := conn.CallAsyncFunc(MsgAppend, &req, func(rep Reply) {
		mcInflightAppends.Add(-1)
		mcAppendRTT.RecordSince(start)
		err := ReplyError(rep)
		if placement.IsDisconnect(err) {
			sc.fault(conn)
		} else if errors.Is(err, client.ErrWrongHost) {
			// Kick a background refresh so the writer's replay routes to the
			// new owner; the connection itself is healthy — no fault, no
			// teardown. The writer parks the batch and replays it (§3.2).
			go func() { _, _ = c.router.Refresh(snap.Epoch) }()
		}
		cb(segstore.AppendResult{Offset: rep.Offset, Err: err})
		sc.resolved()
	})
	if err != nil {
		mcInflightAppends.Add(-1)
		sc.fault(conn)
		go func() {
			cb(segstore.AppendResult{Offset: -1, Err: disconnected(err)})
			sc.resolved()
		}()
	}
}

// AppendConditional implements the state synchronizer's compare-and-append.
// A retry after a lost ack is safe: the expected offset guards it, and an
// applied attempt resurfaces as ErrConditionalFailed, which the
// synchronizer resolves by refetching (§3.3).
func (c *Client) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	req := AppendReq{Segment: name, Data: data, CondOffset: expectedOffset}
	rep, _, err := c.segCall(context.Background(), name, MsgAppend, &req)
	if err != nil {
		return 0, err
	}
	return rep.Offset, nil
}

// ReadCtx reads from a segment, long-polling up to wait at the tail; the
// wait ends early when ctx is done.
func (c *Client) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	req := ReadReq{Segment: name, Offset: offset, MaxBytes: maxBytes, WaitMS: wait.Milliseconds()}
	rep, _, err := c.segCall(ctx, name, MsgRead, &req)
	if err != nil {
		return segstore.ReadResult{}, err
	}
	return segstore.ReadResult{Data: rep.Data, Offset: rep.Offset, EndOfSegment: rep.EOS}, nil
}

// GetInfo fetches segment metadata.
func (c *Client) GetInfo(name string) (segment.Info, error) {
	rep, _, err := c.segCall(context.Background(), name, MsgGetInfo, SegmentReq{Segment: name})
	if err != nil {
		return segment.Info{}, err
	}
	var info segment.Info
	if err := json.Unmarshal(rep.JSON, &info); err != nil {
		return segment.Info{}, fmt.Errorf("wire: segment info: %w", err)
	}
	return info, nil
}

// WriterState returns the writer's last recorded event number (§3.2
// reconnection handshake).
func (c *Client) WriterState(name, writerID string) (int64, error) {
	rep, _, err := c.segCall(context.Background(), name, MsgWriterState, SegmentReq{Segment: name, WriterID: writerID})
	if err != nil {
		return 0, err
	}
	return rep.Offset, nil
}

// CreateSegment registers a raw segment.
func (c *Client) CreateSegment(name string) error {
	_, _, err := c.segCall(context.Background(), name, MsgCreateSegment, SegmentReq{Segment: name})
	return err
}

// MergeSegment atomically folds the sealed source segment into the target
// (transaction commit, §3.2). Routed by the target's name; transaction
// shadow segments hash identically to their parent, so the pair lands on
// one store.
//
// Merge is not idempotent: if an attempt was applied but its ack was lost,
// the retry finds the source gone and reports ErrSegmentNotFound for a
// commit that succeeded. placement.Applied recognises that case, and the
// merge offset is then reconstructed from the target's length, using the
// source length snapshotted up front.
func (c *Client) MergeSegment(target, source string) (int64, error) {
	srcLen := int64(-1)
	if info, err := c.GetInfo(source); err == nil {
		srcLen = info.Length
	}
	rep, ambiguous, err := c.segCall(context.Background(), target, MsgMergeSegments, &MergeReq{Target: target, Source: source})
	if placement.Applied(ambiguous, err, segstore.ErrSegmentNotFound) {
		// The offset is exact while commits to this target are serialized,
		// which the controller guarantees per stream segment.
		info, ierr := c.GetInfo(target)
		if ierr != nil {
			return 0, ierr
		}
		if srcLen >= 0 && info.Length >= srcLen {
			return info.Length - srcLen, nil
		}
		return info.Length, nil
	}
	if err != nil {
		return 0, err
	}
	return rep.Offset, nil
}

// --- client.ControlTransport ---

func (c *Client) CreateScope(scope string) error {
	_, err := c.ctrl.call(MsgCreateScope, StreamReq{Scope: scope})
	return err
}

func (c *Client) CreateStream(cfg controller.StreamConfig) error {
	req := StreamReq{Scope: cfg.Scope, Stream: cfg.Name, Segments: cfg.InitialSegments}
	if cfg.Scaling != (controller.ScalingPolicy{}) {
		s := cfg.Scaling
		req.Scaling = &s
	}
	if cfg.Retention != (controller.RetentionPolicy{}) {
		r := cfg.Retention
		req.Retention = &r
	}
	_, err := c.ctrl.call(MsgCreateStream, req)
	return err
}

func (c *Client) GetActiveSegments(scope, stream string) ([]controller.SegmentWithRange, error) {
	rep, err := c.ctrl.call(MsgActiveSegments, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return nil, err
	}
	var segs []controller.SegmentWithRange
	if err := json.Unmarshal(rep.JSON, &segs); err != nil {
		return nil, fmt.Errorf("wire: active segments: %w", err)
	}
	return segs, nil
}

func (c *Client) GetSuccessors(scope, stream string, segNumber int64) ([]controller.SuccessorRecord, error) {
	rep, err := c.ctrl.call(MsgSuccessors, StreamReq{Scope: scope, Stream: stream, Segment: segNumber})
	if err != nil {
		return nil, err
	}
	var succ []controller.SuccessorRecord
	if err := json.Unmarshal(rep.JSON, &succ); err != nil {
		return nil, fmt.Errorf("wire: successors: %w", err)
	}
	return succ, nil
}

func (c *Client) GetHeadSegments(scope, stream string) ([]controller.HeadSegment, error) {
	rep, err := c.ctrl.call(MsgHeadSegments, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return nil, err
	}
	var heads []controller.HeadSegment
	if err := json.Unmarshal(rep.JSON, &heads); err != nil {
		return nil, fmt.Errorf("wire: head segments: %w", err)
	}
	return heads, nil
}

func (c *Client) Scale(scope, stream string, seal []int64, newRanges []keyspace.Range) error {
	_, err := c.ctrl.call(MsgScaleSegments, ScaleReq{Scope: scope, Stream: stream, Seal: seal, Ranges: newRanges})
	return err
}

func (c *Client) SealStream(scope, stream string) error {
	_, err := c.ctrl.call(MsgSealStream, StreamReq{Scope: scope, Stream: stream})
	return err
}

func (c *Client) TruncateStream(scope, stream string, cut controller.StreamCut) error {
	_, err := c.ctrl.call(MsgTruncateStream, TruncateStreamReq{Scope: scope, Stream: stream, Cut: cut})
	return err
}

func (c *Client) DeleteStream(scope, stream string) error {
	_, err := c.ctrl.call(MsgDeleteStream, StreamReq{Scope: scope, Stream: stream})
	return err
}

func (c *Client) StreamConfigOf(scope, stream string) (controller.StreamConfig, error) {
	rep, err := c.ctrl.call(MsgStreamConfig, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return controller.StreamConfig{}, err
	}
	var cfg controller.StreamConfig
	if err := json.Unmarshal(rep.JSON, &cfg); err != nil {
		return controller.StreamConfig{}, fmt.Errorf("wire: stream config: %w", err)
	}
	return cfg, nil
}

func (c *Client) UpdateStreamPolicies(scope, stream string, scaling *controller.ScalingPolicy, retention *controller.RetentionPolicy) error {
	_, err := c.ctrl.call(MsgUpdatePolicies, StreamReq{Scope: scope, Stream: stream, Scaling: scaling, Retention: retention})
	return err
}

func (c *Client) IsStreamSealed(scope, stream string) (bool, error) {
	rep, err := c.ctrl.call(MsgIsSealed, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return false, err
	}
	return rep.Count == 1, nil
}

func (c *Client) SegmentCount(scope, stream string) (int, error) {
	rep, err := c.ctrl.call(MsgSegmentCount, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return 0, err
	}
	return rep.Count, nil
}

func (c *Client) BeginTxn(scope, stream string, lease time.Duration) (controller.TxnInfo, error) {
	rep, err := c.ctrl.call(MsgBeginTxn, TxnReq{Scope: scope, Stream: stream, LeaseMS: lease.Milliseconds()})
	if err != nil {
		return controller.TxnInfo{}, err
	}
	var info controller.TxnInfo
	if err := json.Unmarshal(rep.JSON, &info); err != nil {
		return controller.TxnInfo{}, fmt.Errorf("wire: begin txn: %w", err)
	}
	return info, nil
}

func (c *Client) CommitTxn(scope, stream, txnID string) error {
	_, err := c.ctrl.call(MsgCommitTxn, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	return err
}

func (c *Client) AbortTxn(scope, stream, txnID string) error {
	_, err := c.ctrl.call(MsgAbortTxn, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	return err
}

func (c *Client) TxnStatus(scope, stream, txnID string) (controller.TxnState, error) {
	rep, err := c.ctrl.call(MsgTxnStatus, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	if err != nil {
		return "", err
	}
	var state controller.TxnState
	if err := json.Unmarshal(rep.JSON, &state); err != nil {
		return "", fmt.Errorf("wire: txn status: %w", err)
	}
	return state, nil
}
