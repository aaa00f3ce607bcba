package hosting

import (
	"context"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
)

// Conn is one client's connection to the cluster's segment stores. With a
// profile it shapes traffic through per-store request/response links
// (modelling one TCP connection per store, as the Pravega client holds),
// preserving FIFO order — which the writer relies on for per-key event
// order (§3.2).
type Conn struct {
	cl      *Cluster
	profile *sim.Profile

	mu   sync.Mutex
	req  map[string]*sim.Link
	resp map[string]*sim.Link
}

// NewClientConn creates a connection. profile may be nil for an
// instantaneous (test) connection.
func (cl *Cluster) NewClientConn(profile *sim.Profile) *Conn {
	return &Conn{
		cl:      cl,
		profile: profile,
		req:     make(map[string]*sim.Link),
		resp:    make(map[string]*sim.Link),
	}
}

// RTT returns the modelled round-trip time to the segment stores.
func (c *Conn) RTT() time.Duration {
	if c.profile == nil {
		return 0
	}
	return c.profile.ClientLink.RTT()
}

// links returns the request/response links for a store.
func (c *Conn) links(storeID string) (*sim.Link, *sim.Link) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.req[storeID]
	if !ok {
		cfg := sim.LinkConfig{}
		if c.profile != nil {
			cfg = c.profile.ClientLink
		}
		r = sim.NewLink(cfg)
		c.req[storeID] = r
		c.resp[storeID] = sim.NewLink(cfg)
	}
	return r, c.resp[storeID]
}

// oneWay sleeps half an RTT (simple request/response calls).
func (c *Conn) oneWay() {
	if c.profile != nil {
		time.Sleep(c.profile.ClientLink.Latency)
	}
}

// AppendAsync sends an append through the shaped request link and delivers
// the result on the response link. Appends to segments on the same store
// stay FIFO end to end.
func (c *Conn) AppendAsync(segment string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	st, err := c.cl.StoreFor(segment)
	if err != nil {
		// The transport contract delivers callbacks on a transport-internal
		// goroutine; failing synchronously would re-enter the caller (the
		// writer invokes AppendAsync with its own lock held).
		go cb(segstore.AppendResult{Err: err})
		return
	}
	cont, err := st.Container(segment)
	if err != nil {
		go cb(segstore.AppendResult{Err: err})
		return
	}
	req, resp := c.links(st.ID())
	size := len(data) + 64
	req.Send(size, func() {
		// Callback delivery: the container's applier invokes this directly
		// and resp.Send only schedules a timer, so no forwarding goroutine
		// or channel is needed per append.
		cont.AppendAsyncFunc(segment, data, writerID, eventNum, eventCount, func(r segstore.AppendResult) {
			resp.Send(64, func() { cb(r) })
		})
	})
}

// AppendConditional performs a conditional append (state synchronizer).
// Placement misses retry against fresh routing; a conditional append is
// guarded by its expected offset, so a retry that raced an applied attempt
// surfaces as ErrConditionalFailed, which the synchronizer resolves by
// refetching.
func (c *Conn) AppendConditional(segment string, data []byte, expectedOffset int64) (int64, error) {
	var off int64
	err := c.onContainer(context.Background(), false, segment, func(cont *segstore.Container) (err error) {
		off, err = cont.AppendConditional(segment, data, expectedOffset)
		return err
	})
	return off, err
}

// onContainer runs op on the container owning name, one modelled round
// trip away, retrying through the cluster's placement router.
func (c *Conn) onContainer(ctx context.Context, idempotent bool, name string, op func(*segstore.Container) error) error {
	return c.cl.retry(ctx, idempotent, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cont, err := c.cl.ContainerFor(name)
		if err != nil {
			return err
		}
		c.oneWay()
		defer c.oneWay()
		return op(cont)
	})
}

// ReadCtx performs a (long-poll) segment read, with cancellation plumbed
// through to the server-side long-poll: a tail read unblocks as soon as ctx
// is done.
func (c *Conn) ReadCtx(ctx context.Context, segment string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	var res segstore.ReadResult
	err := c.onContainer(ctx, true, segment, func(cont *segstore.Container) (err error) {
		res, err = cont.ReadCtx(ctx, segment, offset, maxBytes, wait)
		return err
	})
	return res, err
}

// GetInfo fetches segment metadata.
func (c *Conn) GetInfo(name string) (segment.Info, error) {
	var info segment.Info
	err := c.onContainer(context.Background(), true, name, func(cont *segstore.Container) (err error) {
		info, err = cont.GetInfo(name)
		return err
	})
	return info, err
}

// CreateSegment registers a raw segment (reader-group state, KV tables).
func (c *Conn) CreateSegment(name string) error {
	c.oneWay()
	err := c.cl.CreateSegment(name)
	c.oneWay()
	return err
}

// MergeSegment atomically folds the sealed source segment into the target
// (transaction commit, §3.2).
func (c *Conn) MergeSegment(target, source string) (int64, error) {
	c.oneWay()
	off, err := c.cl.MergeSegmentAt(target, source)
	c.oneWay()
	return off, err
}

// Close releases the connection. The in-process links hold no OS
// resources; Close exists to satisfy client.DataTransport.
func (c *Conn) Close() error { return nil }

// WriterState fetches the writer's last recorded event number (§3.2
// reconnection handshake).
func (c *Conn) WriterState(segment, writerID string) (int64, error) {
	n := int64(-1)
	err := c.onContainer(context.Background(), true, segment, func(cont *segstore.Container) (err error) {
		n, err = cont.WriterState(segment, writerID)
		return err
	})
	return n, err
}
