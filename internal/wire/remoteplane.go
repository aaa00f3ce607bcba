package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// StoreBackend adapts one segstore.Store to the wire server's DataBackend,
// for store-role processes that host a single store. Requests for a
// container this store doesn't own answer with client.ErrWrongHost (NOT
// ErrWrongContainer: the external client's cure is a placement refresh, and
// the wire code for wrong-container would send it down the wrong path).
type StoreBackend struct {
	St *segstore.Store
}

var _ DataBackend = StoreBackend{}

// notHosted rewrites a local wrong-container error as a wire wrong-host:
// %v flattens the old chain so only ErrWrongHost is matchable.
func notHosted(err error) error {
	if err != nil && errors.Is(err, segstore.ErrWrongContainer) {
		return fmt.Errorf("%v: %w", err, client.ErrWrongHost)
	}
	return err
}

func (b StoreBackend) ContainerFor(name string) (*segstore.Container, error) {
	c, err := b.St.Container(name)
	return c, notHosted(err)
}

func (b StoreBackend) CreateSegment(name string) error {
	return notHosted(b.St.CreateSegment(name))
}

func (b StoreBackend) SealSegment(name string) (int64, error) {
	n, err := b.St.Seal(name)
	return n, notHosted(err)
}

func (b StoreBackend) TruncateSegment(name string, offset int64) error {
	return notHosted(b.St.Truncate(name, offset))
}

func (b StoreBackend) DeleteSegment(name string) error {
	return notHosted(b.St.DeleteSegment(name))
}

func (b StoreBackend) MergeSegmentAt(target, source string) (int64, error) {
	n, err := b.St.MergeSegment(target, source)
	return n, notHosted(err)
}

func (b StoreBackend) SegmentInfo(name string) (segment.Info, error) {
	info, err := b.St.GetInfo(name)
	return info, notHosted(err)
}

// RemotePlane is the coord process's data plane: it satisfies
// controller.DataPlane by forwarding each segment operation over the wire
// to the store process that owns the segment's container. It routes like
// a Client — same placement router, connection pool and retry — except
// that its placement comes from the local coordination store rather than a
// control connection.
type RemotePlane struct {
	meta  *cluster.Store
	total int
	c     *Client
}

var _ controller.DataPlane = (*RemotePlane)(nil)

// NewRemotePlane builds a data plane over the given coordination store.
func NewRemotePlane(meta *cluster.Store, totalContainers int, cfg ClientConfig) *RemotePlane {
	cfg.defaults()
	c := &Client{cfg: cfg}
	fetch := func() (*placement.Snapshot[ClusterInfo], error) {
		info, err := CoordClusterInfo(meta, totalContainers)
		if err != nil {
			return nil, err
		}
		return c.adopt(info)
	}
	initial, err := fetch()
	if err != nil {
		initial = &placement.Snapshot[ClusterInfo]{Table: ClusterInfo{TotalContainers: totalContainers}}
	}
	c.router = placement.New(initial, fetch)
	go c.router.Watch(func(done <-chan struct{}, known int64) (int64, error) {
		return placement.AwaitEpoch(meta, known, done, 0)
	})
	return &RemotePlane{meta: meta, total: totalContainers, c: c}
}

// Close stops the epoch watch and tears down every store connection.
func (p *RemotePlane) Close() { _ = p.c.Close() }

// call forwards one operation to the owner of name's container.
// ambiguous reports whether an attempt may have been applied without its
// reply arriving (placement.Retry).
func (p *RemotePlane) call(name string, t MessageType, body any) (Reply, bool, error) {
	return p.c.segCall(context.Background(), name, t, body)
}

// --- controller.DataPlane ---

func (p *RemotePlane) CreateSegment(name string) error {
	_, ambiguous, err := p.call(name, MsgCreateSegment, SegmentReq{Segment: name})
	if placement.Applied(ambiguous, err, segstore.ErrSegmentExists) {
		return nil
	}
	return err
}

func (p *RemotePlane) SealSegment(name string) (int64, error) {
	rep, _, err := p.call(name, MsgSeal, SegmentReq{Segment: name})
	if err != nil {
		return 0, err
	}
	return rep.Offset, nil
}

func (p *RemotePlane) TruncateSegment(name string, offset int64) error {
	_, _, err := p.call(name, MsgTruncate, SegmentReq{Segment: name, Offset: offset})
	return err
}

func (p *RemotePlane) DeleteSegment(name string) error {
	_, ambiguous, err := p.call(name, MsgDeleteSegment, SegmentReq{Segment: name})
	if placement.Applied(ambiguous, err, segstore.ErrSegmentNotFound) {
		return nil
	}
	return err
}

// MergeSegment commits a transaction segment into its parent. Both route by
// the parent's name, so one store owns the pair and the merge is a single
// forwarded operation. A missing source after an ambiguous attempt means an
// earlier try committed (lost ack), the same resolution the external
// client's MergeSegment uses.
func (p *RemotePlane) MergeSegment(target, source string) error {
	_, ambiguous, err := p.call(target, MsgMergeSegments, MergeReq{Target: target, Source: source})
	if placement.Applied(ambiguous, err, segstore.ErrSegmentNotFound) {
		return nil
	}
	return err
}

func (p *RemotePlane) SegmentInfo(name string) (segment.Info, error) {
	rep, _, err := p.call(name, MsgGetInfo, SegmentReq{Segment: name})
	if err != nil {
		return segment.Info{}, err
	}
	var info segment.Info
	if err := json.Unmarshal(rep.JSON, &info); err != nil {
		return segment.Info{}, fmt.Errorf("wire: segment info: %w", err)
	}
	return info, nil
}

func (p *RemotePlane) OwnerOf(name string) (string, error) {
	return segstore.ContainerOwner(p.meta, keyspace.HashToContainer(segment.RoutingName(name), p.total))
}

// LoadReports polls every store in the pool for its per-segment rates.
// Unreachable stores are skipped — a partial report only delays scaling
// decisions.
func (p *RemotePlane) LoadReports() []segstore.SegmentLoad {
	var out []segstore.SegmentLoad
	for _, sc := range p.c.pool() {
		conn := sc.current()
		if conn == nil {
			continue // reconnecting: skip rather than stall the policy tick
		}
		rep, err := conn.Call(MsgLoadReport, struct{}{})
		if err != nil {
			if placement.IsDisconnect(err) {
				sc.fault(conn)
			}
			continue
		}
		var loads []segstore.SegmentLoad
		if json.Unmarshal(rep.JSON, &loads) == nil {
			out = append(out, loads...)
		}
	}
	return out
}

// CoordClusterInfo snapshots placement for client routing from the
// coordination store; every server that answers MsgClusterInfo builds its
// reply here. Store identities are the sorted live host ids and
// ContainerHome maps containers to their indices. StoreAddrs carries each
// host's advertised address, and is left empty when no host advertises one
// (a single-process server, where every store shares its listener). Hosts
// and their claims share a session, so a dead store's address and its
// claims vanish together. The epoch is read first, so the snapshot is never
// stamped newer than the claims it holds.
func CoordClusterInfo(cs cluster.Coord, totalContainers int) (ClusterInfo, error) {
	epoch := segstore.PlacementEpoch(cs)
	ids, addrs, err := segstore.LiveHosts(cs)
	if err != nil {
		return ClusterInfo{}, err
	}
	claims, err := segstore.ClaimedContainers(cs)
	if err != nil {
		return ClusterInfo{}, err
	}
	idx := make(map[string]int, len(ids))
	storeAddrs := make([]string, len(ids))
	advertised := false
	for i, h := range ids {
		idx[h] = i
		storeAddrs[i] = addrs[h]
		advertised = advertised || addrs[h] != ""
	}
	if !advertised {
		storeAddrs = nil
	}
	home := make(map[int]int, len(claims))
	for cid, host := range claims {
		if i, ok := idx[host]; ok {
			home[cid] = i
		}
	}
	return ClusterInfo{
		TotalContainers: totalContainers,
		Stores:          len(ids),
		ContainerHome:   home,
		StoreAddrs:      storeAddrs,
		Epoch:           epoch,
	}, nil
}
