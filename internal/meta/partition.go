package meta

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"

	"cfs/internal/btree"
	"cfs/internal/multiraft"
	"cfs/internal/proto"
	"cfs/internal/util"
)

// Partition is one meta partition (paper Section 2.1.1): an in-memory
// slice of a volume's namespace holding the inodes whose ids fall in
// [Start, End] plus the dentries of the directories owned by those ids.
// Two B-Trees index the state: inodeTree by inode id and dentryTree by
// (parent inode id, name). All mutations replicate through the partition's
// Raft group; reads are served from the leader's memory.
type Partition struct {
	ID     uint64
	Volume string
	Start  uint64
	End    uint64
	// Members is the master-assigned replica set; Members[0] is the
	// designated leader. Mutable since meta failover: a reconfiguration may
	// detach a dead replica or re-expand the set (guarded by mu).
	Members []string

	raft *multiraft.Group // nil until attached

	mu sync.RWMutex
	// epoch is the ReplicaEpoch fencing Members, mirroring the data path:
	// a reconfiguration is adopted only under a strictly newer epoch, so
	// replayed or reordered master pushes are harmless.
	epoch      uint64
	inodeTree  *btree.BTree
	dentryTree *btree.BTree
	maxInodeID uint64 // largest inode id allocated so far in this partition
	// applied is the Raft index of the last entry applied, carried in
	// snapshots: a follower installing a snapshot is re-sent entries the
	// snapshot already holds (see Apply).
	applied uint64
}

// inodeItem adapts *proto.Inode to btree.Item keyed by inode id.
type inodeItem struct{ ino *proto.Inode }

// Less implements btree.Item.
func (a inodeItem) Less(b btree.Item) bool { return a.ino.Inode < b.(inodeItem).ino.Inode }

// dentryItem adapts proto.Dentry to btree.Item keyed by (parent, name).
type dentryItem struct{ d proto.Dentry }

// Less implements btree.Item.
func (a dentryItem) Less(b btree.Item) bool {
	o := b.(dentryItem)
	if a.d.ParentID != o.d.ParentID {
		return a.d.ParentID < o.d.ParentID
	}
	return a.d.Name < o.d.Name
}

// NewPartition builds an empty partition covering [start, end].
func NewPartition(id uint64, volume string, start, end uint64, members []string) *Partition {
	if start == 0 {
		start = 1 // inode ids start at 1 (the volume root)
	}
	return &Partition{
		ID:         id,
		Volume:     volume,
		Start:      start,
		End:        end,
		Members:    append([]string(nil), members...),
		epoch:      1,
		inodeTree:  btree.New(),
		dentryTree: btree.New(),
		maxInodeID: start - 1,
	}
}

// Epoch returns the partition's current replica epoch.
func (p *Partition) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// MembersCopy returns the current replica set.
func (p *Partition) MembersCopy() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.Members...)
}

// raftGroup returns the partition's Raft group (nil while unreplicated),
// safely against the reconcile loop's late attach.
func (p *Partition) raftGroup() *multiraft.Group {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.raft
}

func (p *Partition) setRaftGroup(g *multiraft.Group) {
	p.mu.Lock()
	p.raft = g
	p.mu.Unlock()
}

// RaftMembers reports the partition's committed Raft configuration, nil
// while the replica runs without a group. The membership-change invariant
// says this and the master's Members record converge to the SAME set after
// every reconfiguration - tests assert on it.
func (p *Partition) RaftMembers() []string {
	if g := p.raftGroup(); g != nil {
		return g.Members()
	}
	return nil
}

// applyReconfig adopts a master reconfiguration: a new Members set under a
// strictly newer ReplicaEpoch. Stale or duplicate deliveries are ignored
// (applied=false), which makes the master's retried pushes idempotent.
func (p *Partition) applyReconfig(members []string, epoch uint64) (applied bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch <= p.epoch {
		return false
	}
	p.Members = append([]string(nil), members...)
	p.epoch = epoch
	return true
}

// volume returns the name of the volume p belongs to.
func (p *Partition) volume() string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.Volume
}

// holds reports whether volume's inode id lies in p's range: inode ids are
// per volume, and one node may host several volumes' partitions.
func (p *Partition) holds(volume string, id uint64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.Volume == volume && p.Start <= id && id <= p.End
}

// InodeCount returns the number of inodes held.
func (p *Partition) InodeCount() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return uint64(p.inodeTree.Len())
}

// DentryCount returns the number of dentries held.
func (p *Partition) DentryCount() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return uint64(p.dentryTree.Len())
}

// MaxInodeID returns the largest inode id allocated so far; the resource
// manager polls it through heartbeats for Algorithm 1.
func (p *Partition) MaxInodeID() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.maxInodeID
}

// MemUsed estimates the partition's memory footprint for utilization-based
// placement (Section 2.3.1): a flat per-record cost model keeps the figure
// deterministic across runs.
func (p *Partition) MemUsed() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	const inodeCost, dentryCost = 256, 96
	return uint64(p.inodeTree.Len())*inodeCost + uint64(p.dentryTree.Len())*dentryCost
}

// ---------------------------------------------------------------------------
// Replicated mutations. A mutation's Raft entry is its request: the op
// byte, the time the proposer read (8 bytes, little endian, unix nanos),
// then the request's metawire body (proto.AppendMeta). Every replica
// applies the entry as it is, so a field added to a request reaches the
// log with no extra work, and every replica stamps the same time.

// entryHeader is the op byte and the proposer's time.
const entryHeader = 1 + 8

// newEntry encodes op's request req as an entry stamped with one reading
// of the proposer's clock. A body that is not op's request is refused.
func newEntry(op proto.Op, req any) ([]byte, error) {
	// 64 bytes hold a typical entry, so it is built in one allocation.
	hdr := append(make([]byte, 0, 64), byte(op))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(proto.Now()))
	entry, ok := proto.AppendMeta(hdr, op, false, req)
	if !ok {
		return nil, errBody(req)
	}
	return entry, nil
}

// propose replicates op's request req as one entry and returns the apply
// result, the reply op's handler sends.
func (p *Partition) propose(op proto.Op, req any) (any, error) {
	entry, err := newEntry(op, req)
	if err != nil {
		return nil, err
	}
	if g := p.raftGroup(); g != nil {
		return g.Propose(entry)
	}
	// Unreplicated partition (single-node tools, fsck): the same entry,
	// applied directly.
	return p.Apply(0, entry)
}

// Apply implements raft.StateMachine. An entry at or below the applied
// index is already in the state and is not run again: Raft labels the
// snapshot it sends a follower with its log's compaction point, while the
// state it serializes is the later applied one, so the follower is re-sent
// the entries in between - and a create run twice makes a phantom inode.
// Index 0 is an entry with no log behind it (an unreplicated partition's)
// and moves no applied index. An entry that is not a mutation's request
// is refused with ErrInvalidArgument and changes nothing.
func (p *Partition) Apply(index uint64, entry []byte) (any, error) {
	if len(entry) < entryHeader {
		return nil, fmt.Errorf("meta: entry of %d bytes: %w", len(entry), util.ErrInvalidArgument)
	}
	op, now := proto.Op(entry[0]), int64(binary.LittleEndian.Uint64(entry[1:entryHeader]))
	req, err := proto.DecodeMetaRequest(op, entry[entryHeader:])
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if index != 0 && index <= p.applied {
		return nil, fmt.Errorf("meta: partition %d: entry %d already applied: %w", p.ID, index, util.ErrStale)
	}
	var out any
	switch r := req.(type) {
	case *proto.CreateInodeReq:
		out, err = p.applyCreateInode(r, now)
	case *proto.UnlinkInodeReq:
		out, err = p.applyUnlinkInode(r, now)
	case *proto.EvictInodeReq:
		out, err = p.applyEvictInode(r)
	case *proto.LinkInodeReq:
		out, err = p.applyLinkInode(r, now)
	case *proto.CreateDentryReq:
		out, err = p.applyCreateDentry(r, now)
	case *proto.DeleteDentryReq:
		out, err = p.applyDeleteDentry(r, now)
	case *proto.UpdateDentryReq:
		out, err = p.applyUpdateDentry(r)
	case *proto.SetAttrReq:
		out, err = p.applySetAttr(r, now)
	case *proto.AppendExtentKeysReq:
		out, err = p.applyAppendExtentKeys(r, now)
	case *proto.SplitMetaPartitionReq:
		out, err = p.applySplit(r)
	default:
		return nil, fmt.Errorf("meta: %w: %v is not a mutation", util.ErrInvalidArgument, op)
	}
	if index != 0 {
		p.applied = index
	}
	return out, err
}

// ---------------------------------------------------------------------------
// Apply functions (called with p.mu held).

// inodeID finds inode id in the inode tree (btree.Find, btree.Update). The
// search key is the id itself, not a boxed inode, so a lookup allocates
// nothing.
func inodeID(id uint64) func(btree.Item) int {
	return func(it btree.Item) int { return cmp.Compare(id, it.(inodeItem).ino.Inode) }
}

// dentryAt finds dentry (parent, name) in the dentry tree (btree.Find,
// btree.Update) by the pair itself, without boxing a search key.
func dentryAt(parentID uint64, name string) func(btree.Item) int {
	return func(it btree.Item) int {
		d := it.(dentryItem).d
		return cmp.Or(cmp.Compare(parentID, d.ParentID), strings.Compare(name, d.Name))
	}
}

func (p *Partition) getInode(id uint64) *proto.Inode {
	it := p.inodeTree.Find(inodeID(id))
	if it == nil {
		return nil
	}
	return it.(inodeItem).ino
}

// changeInode stores what change makes of a copy of inode id in the
// stored inode's place, in one tree descent, and returns the copy. A
// stored inode is never written again, because a tree clone or a reader
// may still hold it. When no inode has the id, or change fails, nothing
// is stored.
func (p *Partition) changeInode(id uint64, change func(ino *proto.Inode) error) (*proto.Inode, error) {
	var out *proto.Inode
	var err error
	if p.inodeTree.Update(inodeID(id), func(it btree.Item) btree.Item {
		ino := *it.(inodeItem).ino
		if err = change(&ino); err != nil {
			return it
		}
		out = &ino
		return inodeItem{ino: out}
	}) == nil {
		return nil, fmt.Errorf("meta: inode %d: %w", id, util.ErrNotFound)
	}
	return out, err
}

// applyCreateInode allocates the smallest unused inode id (Section 2.6.1:
// "picks up the smallest inode id that has not been used so far ... and
// updates its largest inode id accordingly").
func (p *Partition) applyCreateInode(r *proto.CreateInodeReq, now int64) (any, error) {
	next := p.maxInodeID + 1
	if next < p.Start {
		next = p.Start
	}
	if next > p.End {
		return nil, fmt.Errorf("meta: partition %d inode range exhausted: %w", p.ID, util.ErrFull)
	}
	ino := &proto.Inode{
		Inode:      next,
		Type:       r.Type,
		LinkTarget: r.LinkTarget,
		NLink:      1,
		CreateTime: now,
		ModifyTime: now,
	}
	if r.Type == proto.TypeDir {
		ino.NLink = 2
	}
	p.maxInodeID = next
	p.inodeTree.ReplaceOrInsert(inodeItem{ino: ino})
	return &proto.CreateInodeResp{Info: ino}, nil
}

// CreateRootInode installs the volume root directory (inode 1). It is only
// valid on the partition owning id 1 and is idempotent.
func (p *Partition) CreateRootInode() error {
	_, err := p.propose(proto.OpMetaCreateInode, &proto.CreateInodeReq{PartitionID: p.ID, Type: proto.TypeDir})
	return err
}

func (p *Partition) applyUnlinkInode(r *proto.UnlinkInodeReq, now int64) (any, error) {
	ino, err := p.changeInode(r.Inode, func(ino *proto.Inode) error {
		if ino.NLink > 0 {
			ino.NLink--
		}
		// Threshold: 0 for files, 2 for directories (Section 2.6.3). At
		// or below it the inode is marked deleted; content cleanup is
		// asynchronous (Section 2.7.3).
		if (!ino.IsDir() && ino.NLink == 0) || (ino.IsDir() && ino.NLink < 2) {
			ino.Flag |= proto.FlagDeleteMark
		}
		ino.ModifyTime = now
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &proto.UnlinkInodeResp{Info: ino}, nil
}

func (p *Partition) applyEvictInode(r *proto.EvictInodeReq) (any, error) {
	ino := p.getInode(r.Inode)
	if ino == nil {
		return &proto.EvictInodeResp{}, nil // already gone: idempotent
	}
	if ino.Flag&proto.FlagDeleteMark == 0 {
		return nil, fmt.Errorf("meta: inode %d not marked deleted: %w", r.Inode, util.ErrInvalidArgument)
	}
	p.inodeTree.Delete(inodeItem{ino: ino})
	return &proto.EvictInodeResp{}, nil
}

func (p *Partition) applyLinkInode(r *proto.LinkInodeReq, now int64) (any, error) {
	ino, err := p.changeInode(r.Inode, func(ino *proto.Inode) error {
		if ino.Flag&proto.FlagDeleteMark != 0 {
			return fmt.Errorf("meta: inode %d: %w", r.Inode, util.ErrNotFound)
		}
		ino.NLink++
		ino.ModifyTime = now
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &proto.LinkInodeResp{Info: ino}, nil
}

func (p *Partition) applyCreateDentry(r *proto.CreateDentryReq, now int64) (any, error) {
	_, err := p.changeInode(r.ParentID, func(parent *proto.Inode) error {
		if !parent.IsDir() {
			return fmt.Errorf("meta: parent inode %d: %w", r.ParentID, util.ErrNotDir)
		}
		key := dentryItem{d: proto.Dentry{ParentID: r.ParentID, Name: r.Name, Inode: r.Inode, Type: r.Type}}
		if p.dentryTree.Has(key) {
			return fmt.Errorf("meta: dentry %d/%q: %w", r.ParentID, r.Name, util.ErrExist)
		}
		p.dentryTree.ReplaceOrInsert(key)
		if r.Type == proto.TypeDir {
			parent.NLink++ // subdirectory's ".." reference
		}
		parent.ModifyTime = now
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &proto.CreateDentryResp{}, nil
}

func (p *Partition) applyDeleteDentry(r *proto.DeleteDentryReq, now int64) (any, error) {
	key := dentryItem{d: proto.Dentry{ParentID: r.ParentID, Name: r.Name}}
	it := p.dentryTree.Delete(key)
	if it == nil {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", r.ParentID, r.Name, util.ErrNotFound)
	}
	d := it.(dentryItem).d
	// A parent that is already gone has no link count left to keep.
	_, _ = p.changeInode(r.ParentID, func(parent *proto.Inode) error {
		if d.Type == proto.TypeDir && parent.NLink > 0 {
			parent.NLink--
		}
		parent.ModifyTime = now
		return nil
	})
	return &proto.DeleteDentryResp{Inode: d.Inode}, nil
}

func (p *Partition) applyUpdateDentry(r *proto.UpdateDentryReq) (any, error) {
	var old uint64
	if p.dentryTree.Update(dentryAt(r.ParentID, r.Name), func(it btree.Item) btree.Item {
		d := it.(dentryItem).d
		old = d.Inode
		d.Inode = r.Inode
		return dentryItem{d: d}
	}) == nil {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", r.ParentID, r.Name, util.ErrNotFound)
	}
	return &proto.UpdateDentryResp{OldInode: old}, nil
}

func (p *Partition) applySetAttr(r *proto.SetAttrReq, now int64) (any, error) {
	if _, err := p.changeInode(r.Inode, func(ino *proto.Inode) error {
		if r.Valid&proto.AttrSize != 0 {
			ino.Size = r.Size
			// Truncation drops extent keys entirely beyond the new size,
			// into a new slice: the stored one is still read.
			var kept []proto.ExtentKey
			for _, ek := range ino.Extents {
				if ek.FileOffset < r.Size {
					kept = append(kept, ek)
				}
			}
			ino.Extents = kept
			ino.Gen++
		}
		if r.Valid&proto.AttrModifyTime != 0 {
			ino.ModifyTime = r.ModifyTime
		} else {
			ino.ModifyTime = now
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &proto.SetAttrResp{}, nil
}

func (p *Partition) applyAppendExtentKeys(r *proto.AppendExtentKeysReq, now int64) (any, error) {
	if _, err := p.changeInode(r.Inode, func(ino *proto.Inode) error {
		// The keys go into the slice's spare capacity, past the length
		// every older version holds, so no older version sees them and an
		// append does not copy the list.
		ino.Extents = append(ino.Extents, r.Extents...)
		if r.Size > ino.Size {
			ino.Size = r.Size
		}
		ino.Gen++
		ino.ModifyTime = now
		return nil
	}); err != nil {
		return nil, err
	}
	return &proto.AppendExtentKeysResp{}, nil
}

// applySplit cuts the partition's inode range at End (Algorithm 1 step:
// "update the inode id range from 1 to end for the original partition").
func (p *Partition) applySplit(r *proto.SplitMetaPartitionReq) (any, error) {
	if r.End < p.maxInodeID {
		return nil, fmt.Errorf("meta: split end %d below maxInodeID %d: %w",
			r.End, p.maxInodeID, util.ErrInvalidArgument)
	}
	p.End = r.End
	return &proto.SplitMetaPartitionResp{MaxInodeID: p.maxInodeID}, nil
}

// ---------------------------------------------------------------------------
// Reads (leader memory, no Raft round trip).

// Lookup resolves (parent, name).
func (p *Partition) Lookup(parentID uint64, name string) (*proto.LookupResp, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	it := p.dentryTree.Find(dentryAt(parentID, name))
	if it == nil {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", parentID, name, util.ErrNotFound)
	}
	d := it.(dentryItem).d
	return &proto.LookupResp{Inode: d.Inode, Type: d.Type}, nil
}

// InodeGet fetches one inode.
func (p *Partition) InodeGet(id uint64) (*proto.Inode, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ino := p.getInode(id)
	if ino == nil || ino.Flag&proto.FlagDeleteMark != 0 {
		return nil, fmt.Errorf("meta: inode %d: %w", id, util.ErrNotFound)
	}
	return ino, nil
}

// BatchInodeGet fetches many inodes in one call - the readdir optimization
// behind the paper's DirStat result (Section 4.2). Missing or deleted
// inodes are skipped.
func (p *Partition) BatchInodeGet(ids []uint64) []*proto.Inode {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*proto.Inode, 0, len(ids))
	for _, id := range ids {
		if ino := p.getInode(id); ino != nil && ino.Flag&proto.FlagDeleteMark == 0 {
			out = append(out, ino)
		}
	}
	return out
}

// ReadDir lists the dentries under parentID in name order.
func (p *Partition) ReadDir(parentID uint64) []proto.Dentry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []proto.Dentry
	from := dentryItem{d: proto.Dentry{ParentID: parentID, Name: ""}}
	to := dentryItem{d: proto.Dentry{ParentID: parentID + 1, Name: ""}}
	p.dentryTree.AscendRange(from, to, func(it btree.Item) bool {
		out = append(out, it.(dentryItem).d)
		return true
	})
	return out
}

// BatchAllInodes returns every inode (fsck inventory).
func (p *Partition) BatchAllInodes() []*proto.Inode {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*proto.Inode, 0, p.inodeTree.Len())
	p.inodeTree.Ascend(func(it btree.Item) bool {
		out = append(out, it.(inodeItem).ino)
		return true
	})
	return out
}

// AllDentries returns a copy of every dentry (fsck inventory).
func (p *Partition) AllDentries() []proto.Dentry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]proto.Dentry, 0, p.dentryTree.Len())
	p.dentryTree.Ascend(func(it btree.Item) bool {
		out = append(out, it.(dentryItem).d)
		return true
	})
	return out
}

// OrphanInodes returns inodes with no dentry pointing at them anywhere in
// this partition. Cross-partition orphans are assembled by fsck from every
// partition's inventory; this method only reports what is locally visible.
func (p *Partition) OrphanInodes() []*proto.Inode {
	p.mu.RLock()
	defer p.mu.RUnlock()
	referenced := make(map[uint64]bool, p.dentryTree.Len())
	p.dentryTree.Ascend(func(it btree.Item) bool {
		referenced[it.(dentryItem).d.Inode] = true
		return true
	})
	var out []*proto.Inode
	p.inodeTree.Ascend(func(it btree.Item) bool {
		ino := it.(inodeItem).ino
		if !referenced[ino.Inode] && ino.Inode != proto.RootInodeID {
			out = append(out, ino)
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Snapshots (raft.StateMachine + disk persistence, Section 2.1.3).

// partitionSnapshot is the serialized form of a partition's full state.
type partitionSnapshot struct {
	ID         uint64
	Volume     string
	Start      uint64
	End        uint64
	MaxInodeID uint64
	Inodes     []*proto.Inode
	Dentries   []proto.Dentry
	// Members and ReplicaEpoch make the snapshot self-describing for
	// restart: a reloaded multi-replica partition re-joins its Raft group
	// (and knows how stale its view of the replica set is) without waiting
	// for the master to re-push the configuration. Zero-valued in pre-epoch
	// snapshots, which load as epoch 1.
	Members      []string
	ReplicaEpoch uint64
	// Applied is the Raft index of the last entry the state holds.
	// Zero in snapshots written before it was recorded.
	Applied uint64
}

// Snapshot implements raft.StateMachine. It clones both trees under the
// lock, in O(1), and walks and encodes the clones outside it: applies
// never write a stored inode, so the clones stay the state at applied.
func (p *Partition) Snapshot() ([]byte, error) {
	p.mu.Lock()
	inodes := p.inodeTree.Clone()
	dentries := p.dentryTree.Clone()
	snap := partitionSnapshot{
		ID:           p.ID,
		Volume:       p.Volume,
		Start:        p.Start,
		End:          p.End,
		MaxInodeID:   p.maxInodeID,
		Members:      append([]string(nil), p.Members...),
		ReplicaEpoch: p.epoch,
		Applied:      p.applied,
	}
	p.mu.Unlock()

	inodes.Ascend(func(it btree.Item) bool {
		snap.Inodes = append(snap.Inodes, it.(inodeItem).ino)
		return true
	})
	dentries.Ascend(func(it btree.Item) bool {
		snap.Dentries = append(snap.Dentries, it.(dentryItem).d)
		return true
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore implements raft.StateMachine.
func (p *Partition) Restore(data []byte) error {
	var snap partitionSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return err
	}
	inodeTree := btree.New()
	dentryTree := btree.New()
	for _, ino := range snap.Inodes {
		inodeTree.ReplaceOrInsert(inodeItem{ino: ino})
	}
	for _, d := range snap.Dentries {
		dentryTree.ReplaceOrInsert(dentryItem{d: d})
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Start = snap.Start
	p.End = snap.End
	if snap.Volume != "" {
		p.Volume = snap.Volume
	}
	p.maxInodeID = snap.MaxInodeID
	p.applied = snap.Applied
	p.inodeTree = inodeTree
	p.dentryTree = dentryTree
	// Membership travels with the snapshot, epoch-fenced: a disk reload
	// adopts it (local epoch is still the initial 1), while a Raft snapshot
	// installed from a leader whose view is OLDER than a configuration this
	// replica already adopted from the master must not roll Members back.
	snapEpoch := snap.ReplicaEpoch
	if snapEpoch == 0 {
		snapEpoch = 1 // pre-epoch snapshot
	}
	if snapEpoch >= p.epoch {
		if len(snap.Members) > 0 {
			p.Members = append([]string(nil), snap.Members...)
		}
		p.epoch = snapEpoch
	}
	return nil
}
