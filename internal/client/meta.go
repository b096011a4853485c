package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// MetaClient routes metadata operations to meta partitions (paper Sections
// 2.4, 2.6). Routing rules:
//
//   - Inode ops go to the partition whose [Start, End] range contains the
//     inode id.
//   - Dentry ops go to the partition owning the PARENT inode id (the paper
//     stores a file's dentry with its parent, Section 2.6.2).
//   - Inode creation picks a random writable partition (Section 2.3.1:
//     clients select partitions randomly to avoid consulting the resource
//     manager for utilization data).
//
// The client caches the volume's partition set (refreshed from the master
// periodically), the last identified leader per partition, and recently
// fetched inodes/dentries.
type MetaClient struct {
	nw  transport.Network
	cfg Config
	// refreshView re-pulls the volume view (Client.Refresh, wired by Mount).
	refreshView func() error
	leader      answerer

	mu       sync.Mutex
	view     []proto.MetaPartitionInfo // sorted by Start
	rnd      *util.Rand
	orphans  []orphanRef // local list of inodes to evict (Figure 3a)
	inodes   map[uint64]cachedInode
	dentries map[uint64]map[string]cachedDentry
}

type orphanRef struct {
	partitionID uint64
	inode       uint64
}

type cachedInode struct {
	ino     *proto.Inode
	expires time.Time
}

type cachedDentry struct {
	inode   uint64
	typ     uint32
	expires time.Time
}

func newMetaClient(nw transport.Network, cfg Config) *MetaClient {
	return &MetaClient{
		nw:          nw,
		cfg:         cfg,
		refreshView: noRefresh,
		rnd:         util.NewRand(cfg.Seed),
		inodes:      make(map[uint64]cachedInode),
		dentries:    make(map[uint64]map[string]cachedDentry),
	}
}

// setView installs mps, which it takes over, as the meta view.
func (m *MetaClient) setView(mps []proto.MetaPartitionInfo) {
	sort.Slice(mps, func(i, j int) bool { return mps[i].Start < mps[j].Start })
	m.mu.Lock()
	m.view = mps
	m.mu.Unlock()
}

// refresh re-pulls the volume view through the hook Mount wires.
func (m *MetaClient) refresh() error { return m.refreshView() }

// members lists pid's replicas in the current view.
func (m *MetaClient) members(pid uint64) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mp := range m.view {
		if mp.PartitionID == pid {
			return mp.Members
		}
	}
	return nil
}

// partitionFor locates the partition owning an inode id.
func (m *MetaClient) partitionFor(ino uint64) (proto.MetaPartitionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.view), func(i int) bool { return m.view[i].End >= ino })
	if i < len(m.view) && m.view[i].Start <= ino {
		return m.view[i], nil
	}
	return proto.MetaPartitionInfo{}, fmt.Errorf("client: no meta partition for inode %d: %w", ino, util.ErrNotFound)
}

// pickCreatePartition chooses a random writable partition for new inodes.
func (m *MetaClient) pickCreatePartition() (proto.MetaPartitionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rw []proto.MetaPartitionInfo
	for _, mp := range m.view {
		if mp.Status == proto.PartitionReadWrite {
			rw = append(rw, mp)
		}
	}
	if len(rw) == 0 {
		return proto.MetaPartitionInfo{}, fmt.Errorf("client: no writable meta partition: %w", util.ErrNoAvailableNode)
	}
	return rw[m.rnd.Intn(len(rw))], nil
}

// call sends one op to a partition through the replica walk, cached
// leader first. Only a not-leader answer or a timeout moves the walk on;
// any other failure, a dropped proposal included, is the op's answer and
// is not re-sent. A re-sent mutate can apply twice, which the timeout's
// re-send still risks until requests carry an id the partition dedups.
func (m *MetaClient) call(mp proto.MetaPartitionInfo, op proto.Op, req, resp any) error {
	return walk{pid: mp.PartitionID, members: mp.Members, cache: &m.leader,
		rounds: m.cfg.MaxRetries, view: m,
	}.run(func(addr string) (bool, error) {
		err := m.nw.Call(addr, uint8(op), req, resp)
		return errors.Is(err, util.ErrNotLeader) || errors.Is(err, util.ErrTimeout), err
	})
}

// ---------------------------------------------------------------------------
// Figure 3 workflows.

// Create implements Figure 3a: create the inode on a random writable
// partition, then the dentry on the parent's partition. On dentry failure
// the inode is unlinked and remembered on the local orphan list, which
// EvictOrphans flushes.
func (m *MetaClient) Create(parentID uint64, name string, typ uint32, linkTarget []byte) (*proto.Inode, error) {
	mp, err := m.pickCreatePartition()
	if err != nil {
		return nil, err
	}
	var cresp proto.CreateInodeResp
	if err := m.call(mp, proto.OpMetaCreateInode,
		&proto.CreateInodeReq{PartitionID: mp.PartitionID, Type: typ, LinkTarget: linkTarget}, &cresp); err != nil {
		return nil, err
	}
	ino := cresp.Info
	if err := m.createDentry(parentID, name, ino.Inode, typ); err != nil {
		// Dentry failed: unlink the fresh inode and queue it for evict.
		// The inode goes on the orphan list whether the unlink lands or not.
		var uresp proto.UnlinkInodeResp
		_ = m.call(mp, proto.OpMetaUnlinkInode,
			&proto.UnlinkInodeReq{PartitionID: mp.PartitionID, Inode: ino.Inode}, &uresp)
		m.mu.Lock()
		m.orphans = append(m.orphans, orphanRef{partitionID: mp.PartitionID, inode: ino.Inode})
		m.mu.Unlock()
		return nil, err
	}
	m.cacheInode(ino)
	m.cacheDentry(parentID, name, ino.Inode, typ)
	return ino, nil
}

func (m *MetaClient) createDentry(parentID uint64, name string, ino uint64, typ uint32) error {
	mp, err := m.partitionFor(parentID)
	if err != nil {
		return err
	}
	var resp proto.CreateDentryResp
	return m.call(mp, proto.OpMetaCreateDentry, &proto.CreateDentryReq{
		PartitionID: mp.PartitionID, ParentID: parentID, Name: name, Inode: ino, Type: typ,
	}, &resp)
}

// Link implements Figure 3b: nlink++ on the inode's partition, then create
// the dentry on the parent's; on failure, nlink--.
func (m *MetaClient) Link(parentID uint64, name string, ino uint64) error {
	mp, err := m.partitionFor(ino)
	if err != nil {
		return err
	}
	var lresp proto.LinkInodeResp
	if err := m.call(mp, proto.OpMetaLinkInode,
		&proto.LinkInodeReq{PartitionID: mp.PartitionID, Inode: ino}, &lresp); err != nil {
		return err
	}
	if err := m.createDentry(parentID, name, ino, lresp.Info.Type); err != nil {
		var uresp proto.UnlinkInodeResp
		_ = m.call(mp, proto.OpMetaUnlinkInode,
			&proto.UnlinkInodeReq{PartitionID: mp.PartitionID, Inode: ino}, &uresp)
		return err
	}
	m.invalidateInode(ino)
	m.cacheDentry(parentID, name, ino, lresp.Info.Type)
	return nil
}

// LinkInode bumps an inode's nlink without touching dentries (rename
// plumbing).
func (m *MetaClient) LinkInode(ino uint64) error {
	mp, err := m.partitionFor(ino)
	if err != nil {
		return err
	}
	var resp proto.LinkInodeResp
	if err := m.call(mp, proto.OpMetaLinkInode,
		&proto.LinkInodeReq{PartitionID: mp.PartitionID, Inode: ino}, &resp); err != nil {
		return err
	}
	m.invalidateInode(ino)
	return nil
}

// UnlinkInode decrements an inode's nlink without touching dentries
// (rename plumbing and orphan repair) and returns the post-unlink inode,
// extents included. Inodes crossing the delete threshold come back with
// FlagDeleteMark set and are queued for evict.
func (m *MetaClient) UnlinkInode(ino uint64) (*proto.Inode, error) {
	mp, err := m.partitionFor(ino)
	if err != nil {
		return nil, err
	}
	var resp proto.UnlinkInodeResp
	if err := m.call(mp, proto.OpMetaUnlinkInode,
		&proto.UnlinkInodeReq{PartitionID: mp.PartitionID, Inode: ino}, &resp); err != nil {
		return nil, err
	}
	m.invalidateInode(ino)
	if resp.Info != nil && resp.Info.Flag&proto.FlagDeleteMark != 0 {
		m.mu.Lock()
		m.orphans = append(m.orphans, orphanRef{partitionID: mp.PartitionID, inode: ino})
		m.mu.Unlock()
	}
	return resp.Info, nil
}

// Unlink implements Figure 3c: delete the dentry first; only on success
// decrement nlink. It returns the post-unlink inode (see UnlinkInode).
func (m *MetaClient) Unlink(parentID uint64, name string) (*proto.Inode, error) {
	pmp, err := m.partitionFor(parentID)
	if err != nil {
		return nil, err
	}
	var dresp proto.DeleteDentryResp
	if err := m.call(pmp, proto.OpMetaDeleteDentry,
		&proto.DeleteDentryReq{PartitionID: pmp.PartitionID, ParentID: parentID, Name: name}, &dresp); err != nil {
		return nil, err
	}
	m.invalidateDentry(parentID, name)
	// A failure past this point leaves the inode an orphan; fsck territory
	// per Section 2.6.3.
	return m.UnlinkInode(dresp.Inode)
}

// EvictOrphans flushes the local orphan list with evict requests
// (Figure 3a/3c: "deleted when the meta node receives an evict request").
// Returns the number evicted.
func (m *MetaClient) EvictOrphans() int {
	m.mu.Lock()
	orphans := m.orphans
	m.orphans = nil
	m.mu.Unlock()
	evicted := 0
	for _, o := range orphans {
		mp, err := m.partitionFor(o.inode)
		if err != nil {
			continue
		}
		var resp proto.EvictInodeResp
		if err := m.call(mp, proto.OpMetaEvictInode,
			&proto.EvictInodeReq{PartitionID: mp.PartitionID, Inode: o.inode}, &resp); err == nil {
			evicted++
		}
	}
	return evicted
}

// OrphanCount returns the number of queued orphan evictions.
func (m *MetaClient) OrphanCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.orphans)
}

// ---------------------------------------------------------------------------
// Reads.

// Lookup resolves (parent, name), consulting the dentry cache first. When
// the node that answered also leads the inode's partition, the reply's
// Info carries the inode, read from that leader's memory inside the
// request: as fresh as InodeGet(forceSync) sent then, and cached like one.
// Info is nil on a dentry-cache hit or when another node leads the
// inode's partition; the caller then asks InodeGet.
func (m *MetaClient) Lookup(parentID uint64, name string) (proto.LookupResp, error) {
	if m.cfg.CacheTTL > 0 {
		m.mu.Lock()
		if ents, ok := m.dentries[parentID]; ok {
			if d, ok := ents[name]; ok && time.Now().Before(d.expires) {
				m.mu.Unlock()
				return proto.LookupResp{Inode: d.inode, Type: d.typ}, nil
			}
		}
		m.mu.Unlock()
	}
	mp, err := m.partitionFor(parentID)
	if err != nil {
		return proto.LookupResp{}, err
	}
	var resp proto.LookupResp
	if err := m.call(mp, proto.OpMetaLookup,
		&proto.LookupReq{PartitionID: mp.PartitionID, ParentID: parentID, Name: name}, &resp); err != nil {
		return proto.LookupResp{}, err
	}
	m.cacheDentry(parentID, name, resp.Inode, resp.Type)
	if resp.Info != nil {
		m.cacheInode(resp.Info)
	}
	return resp, nil
}

// InodeGet fetches an inode, serving from cache when fresh. Pass
// forceSync=true to bypass the cache (the paper forces a sync when a file
// is opened, Section 2.4).
func (m *MetaClient) InodeGet(ino uint64, forceSync bool) (*proto.Inode, error) {
	if !forceSync && m.cfg.CacheTTL > 0 {
		m.mu.Lock()
		if c, ok := m.inodes[ino]; ok && time.Now().Before(c.expires) {
			m.mu.Unlock()
			return c.ino, nil
		}
		m.mu.Unlock()
	}
	mp, err := m.partitionFor(ino)
	if err != nil {
		return nil, err
	}
	var resp proto.InodeGetResp
	if err := m.call(mp, proto.OpMetaInodeGet,
		&proto.InodeGetReq{PartitionID: mp.PartitionID, Inode: ino}, &resp); err != nil {
		return nil, err
	}
	m.cacheInode(resp.Info)
	return resp.Info, nil
}

// ReadDir lists a directory's entries.
func (m *MetaClient) ReadDir(parentID uint64) ([]proto.Dentry, error) {
	mp, err := m.partitionFor(parentID)
	if err != nil {
		return nil, err
	}
	var resp proto.ReadDirResp
	if err := m.call(mp, proto.OpMetaReadDir,
		&proto.ReadDirReq{PartitionID: mp.PartitionID, ParentID: parentID}, &resp); err != nil {
		return nil, err
	}
	for _, d := range resp.Children {
		m.cacheDentry(parentID, d.Name, d.Inode, d.Type)
	}
	return resp.Children, nil
}

// BatchInodeGet fetches many inodes with one RPC per owning partition -
// the readdir optimization behind the paper's DirStat result (Section
// 4.2). With disableBatchInodeGet set (the ablation baseline) it
// degrades to one InodeGet per id, Ceph-style.
func (m *MetaClient) BatchInodeGet(ids []uint64) ([]*proto.Inode, error) {
	if m.cfg.disableBatchInodeGet {
		out := make([]*proto.Inode, 0, len(ids))
		for _, id := range ids {
			ino, err := m.InodeGet(id, false)
			if err == nil {
				out = append(out, ino)
			}
		}
		return out, nil
	}
	// Serve cached entries, group the misses by partition.
	out := make([]*proto.Inode, 0, len(ids))
	var misses []uint64
	if m.cfg.CacheTTL > 0 {
		now := time.Now()
		m.mu.Lock()
		for _, id := range ids {
			if c, ok := m.inodes[id]; ok && now.Before(c.expires) {
				out = append(out, c.ino)
			} else {
				misses = append(misses, id)
			}
		}
		m.mu.Unlock()
	} else {
		misses = ids
	}
	byPartition := make(map[uint64][]uint64)
	partInfo := make(map[uint64]proto.MetaPartitionInfo)
	for _, id := range misses {
		mp, err := m.partitionFor(id)
		if err != nil {
			continue
		}
		byPartition[mp.PartitionID] = append(byPartition[mp.PartitionID], id)
		partInfo[mp.PartitionID] = mp
	}
	for pid, group := range byPartition {
		var resp proto.BatchInodeGetResp
		if err := m.call(partInfo[pid], proto.OpMetaBatchInodeGet,
			&proto.BatchInodeGetReq{PartitionID: pid, Inodes: group}, &resp); err != nil {
			return nil, err
		}
		for _, ino := range resp.Infos {
			m.cacheInode(ino)
			out = append(out, ino)
		}
	}
	return out, nil
}

// AppendExtentKeys records freshly committed extents on the inode
// (sequential-write step 8, Figure 4).
func (m *MetaClient) AppendExtentKeys(ino uint64, keys []proto.ExtentKey, size uint64) error {
	mp, err := m.partitionFor(ino)
	if err != nil {
		return err
	}
	var resp proto.AppendExtentKeysResp
	if err := m.call(mp, proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{
		PartitionID: mp.PartitionID, Inode: ino, Extents: keys, Size: size,
	}, &resp); err != nil {
		return err
	}
	m.invalidateInode(ino)
	return nil
}

// Truncate sets the file size.
func (m *MetaClient) Truncate(ino uint64, size uint64) error {
	mp, err := m.partitionFor(ino)
	if err != nil {
		return err
	}
	var resp proto.SetAttrResp
	if err := m.call(mp, proto.OpMetaSetAttr, &proto.SetAttrReq{
		PartitionID: mp.PartitionID, Inode: ino, Valid: proto.AttrSize, Size: size,
	}, &resp); err != nil {
		return err
	}
	m.invalidateInode(ino)
	return nil
}

// UpdateDentry repoints (parent, name) to a new inode, returning the old
// target (rename support).
func (m *MetaClient) UpdateDentry(parentID uint64, name string, ino uint64) (uint64, error) {
	mp, err := m.partitionFor(parentID)
	if err != nil {
		return 0, err
	}
	var resp proto.UpdateDentryResp
	if err := m.call(mp, proto.OpMetaUpdateDentry, &proto.UpdateDentryReq{
		PartitionID: mp.PartitionID, ParentID: parentID, Name: name, Inode: ino,
	}, &resp); err != nil {
		return 0, err
	}
	m.invalidateDentry(parentID, name)
	return resp.OldInode, nil
}

// ---------------------------------------------------------------------------
// Cache maintenance.

func (m *MetaClient) cacheInode(ino *proto.Inode) {
	if m.cfg.CacheTTL <= 0 {
		return
	}
	m.mu.Lock()
	m.inodes[ino.Inode] = cachedInode{ino: ino, expires: time.Now().Add(m.cfg.CacheTTL)}
	m.mu.Unlock()
}

func (m *MetaClient) cacheDentry(parentID uint64, name string, ino uint64, typ uint32) {
	if m.cfg.CacheTTL <= 0 {
		return
	}
	m.mu.Lock()
	ents, ok := m.dentries[parentID]
	if !ok {
		ents = make(map[string]cachedDentry)
		m.dentries[parentID] = ents
	}
	ents[name] = cachedDentry{inode: ino, typ: typ, expires: time.Now().Add(m.cfg.CacheTTL)}
	m.mu.Unlock()
}

func (m *MetaClient) invalidateInode(ino uint64) {
	m.mu.Lock()
	delete(m.inodes, ino)
	m.mu.Unlock()
}

func (m *MetaClient) invalidateDentry(parentID uint64, name string) {
	m.mu.Lock()
	if ents, ok := m.dentries[parentID]; ok {
		delete(ents, name)
	}
	m.mu.Unlock()
}
