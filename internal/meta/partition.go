package meta

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
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
	// applied is the Raft index of the last command applied, carried in
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
// Replicated command plumbing. Every mutation is encoded as a command,
// proposed through Raft, and applied identically on every replica.

type cmdKind uint8

const (
	cmdCreateInode cmdKind = iota + 1
	cmdUnlinkInode
	cmdEvictInode
	cmdLinkInode
	cmdCreateDentry
	cmdDeleteDentry
	cmdUpdateDentry
	cmdSetAttr
	cmdAppendExtentKeys
	cmdSplit
)

// command is the Raft log payload for meta mutations.
type command struct {
	Kind cmdKind

	Type       uint32
	LinkTarget []byte
	Inode      uint64
	ParentID   uint64
	Name       string
	DentryType uint32
	Valid      uint32
	Size       uint64
	ModifyTime int64
	Extents    []proto.ExtentKey
	End        uint64
}

// A command is one Raft log entry and must decode on its own, so it has a
// fixed binary layout (little endian): Kind(1) Type(4) Inode(8)
// ParentID(8) DentryType(4) Valid(4) Size(8) ModifyTime(8) End(8), then
// Name and LinkTarget each as length(4) + bytes, then Extents as count(4)
// + 40 bytes per key in ExtentKey field order.
const (
	cmdFixedSize  = 1 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8
	extentKeySize = 8 + 8 + 8 + 8 + 4 + 4
)

func encodeCommand(c *command) []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, cmdFixedSize+12+len(c.Name)+len(c.LinkTarget)+len(c.Extents)*extentKeySize)
	b = append(b, byte(c.Kind))
	b = le.AppendUint32(b, c.Type)
	b = le.AppendUint64(b, c.Inode)
	b = le.AppendUint64(b, c.ParentID)
	b = le.AppendUint32(b, c.DentryType)
	b = le.AppendUint32(b, c.Valid)
	b = le.AppendUint64(b, c.Size)
	b = le.AppendUint64(b, uint64(c.ModifyTime))
	b = le.AppendUint64(b, c.End)
	b = append(le.AppendUint32(b, uint32(len(c.Name))), c.Name...)
	b = append(le.AppendUint32(b, uint32(len(c.LinkTarget))), c.LinkTarget...)
	b = le.AppendUint32(b, uint32(len(c.Extents)))
	for _, ek := range c.Extents {
		b = le.AppendUint64(b, ek.PartitionID)
		b = le.AppendUint64(b, ek.ExtentID)
		b = le.AppendUint64(b, ek.ExtentOffset)
		b = le.AppendUint64(b, ek.FileOffset)
		b = le.AppendUint32(b, ek.Size)
		b = le.AppendUint32(b, ek.CRC)
	}
	return b
}

// cmdReader walks an encoded command; a read past the end yields zeros,
// empties the reader and marks it short, so decodeCommand checks once at
// the end.
type cmdReader struct {
	b     []byte
	short bool
}

func (r *cmdReader) next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.b, r.short = nil, true
		return make([]byte, 8)
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *cmdReader) u32() uint32 { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *cmdReader) u64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

// blob reads a length-prefixed byte string; a zero length reads as nil.
func (r *cmdReader) blob() []byte {
	if v := r.next(int(r.u32())); len(v) > 0 && !r.short {
		return v
	}
	return nil
}

func decodeCommand(data []byte) (*command, error) {
	r := &cmdReader{b: data}
	// Go evaluates the calls in a composite literal left to right, so the
	// fields read in layout order.
	c := &command{Kind: cmdKind(r.next(1)[0]), Type: r.u32(), Inode: r.u64(), ParentID: r.u64(),
		DentryType: r.u32(), Valid: r.u32(), Size: r.u64(), ModifyTime: int64(r.u64()), End: r.u64(),
		Name: string(r.blob()), LinkTarget: bytes.Clone(r.blob())}
	if n := int(r.u32()); n > len(r.b)/extentKeySize {
		r.short = true
	} else if n > 0 {
		c.Extents = make([]proto.ExtentKey, n)
		for i := range c.Extents {
			c.Extents[i] = proto.ExtentKey{PartitionID: r.u64(), ExtentID: r.u64(),
				ExtentOffset: r.u64(), FileOffset: r.u64(), Size: r.u32(), CRC: r.u32()}
		}
	}
	switch {
	case r.short || len(r.b) != 0:
		return nil, fmt.Errorf("meta: command of %d bytes does not match its layout: %w", len(data), util.ErrInvalidArgument)
	case c.Kind < cmdCreateInode || c.Kind > cmdSplit:
		return nil, fmt.Errorf("meta: unknown command %d: %w", c.Kind, util.ErrInvalidArgument)
	}
	return c, nil
}

// propose replicates a command and returns the apply result.
func (p *Partition) propose(c *command) (any, error) {
	g := p.raftGroup()
	if g == nil {
		// Unreplicated partition (single-node tools, fsck): apply
		// directly.
		return p.applyCommand(c)
	}
	return g.Propose(encodeCommand(c))
}

// Apply implements raft.StateMachine. An entry at or below the applied
// index is already in the state and is not run again: Raft labels the
// snapshot it sends a follower with its log's compaction point, while the
// state it serializes is the later applied one, so the follower is re-sent
// the entries in between - and a create run twice makes a phantom inode.
func (p *Partition) Apply(index uint64, data []byte) (any, error) {
	c, err := decodeCommand(data)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if index <= p.applied {
		return nil, fmt.Errorf("meta: partition %d: entry %d already applied: %w", p.ID, index, util.ErrStale)
	}
	p.applied = index
	return p.applyLocked(c)
}

func (p *Partition) applyCommand(c *command) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applyLocked(c)
}

func (p *Partition) applyLocked(c *command) (any, error) {
	switch c.Kind {
	case cmdCreateInode:
		return p.applyCreateInode(c)
	case cmdUnlinkInode:
		return p.applyUnlinkInode(c)
	case cmdEvictInode:
		return p.applyEvictInode(c)
	case cmdLinkInode:
		return p.applyLinkInode(c)
	case cmdCreateDentry:
		return p.applyCreateDentry(c)
	case cmdDeleteDentry:
		return p.applyDeleteDentry(c)
	case cmdUpdateDentry:
		return p.applyUpdateDentry(c)
	case cmdSetAttr:
		return p.applySetAttr(c)
	case cmdAppendExtentKeys:
		return p.applyAppendExtentKeys(c)
	case cmdSplit:
		return p.applySplit(c)
	default:
		return nil, fmt.Errorf("meta: unknown command %d: %w", c.Kind, util.ErrInvalidArgument)
	}
}

// ---------------------------------------------------------------------------
// Apply functions (called with p.mu held).

func (p *Partition) getInode(id uint64) *proto.Inode {
	it := p.inodeTree.Get(inodeItem{ino: &proto.Inode{Inode: id}})
	if it == nil {
		return nil
	}
	return it.(inodeItem).ino
}

// applyCreateInode allocates the smallest unused inode id (Section 2.6.1:
// "picks up the smallest inode id that has not been used so far ... and
// updates its largest inode id accordingly").
func (p *Partition) applyCreateInode(c *command) (any, error) {
	next := p.maxInodeID + 1
	if next < p.Start {
		next = p.Start
	}
	if next > p.End {
		return nil, fmt.Errorf("meta: partition %d inode range exhausted: %w", p.ID, util.ErrFull)
	}
	now := proto.Now()
	ino := &proto.Inode{
		Inode:      next,
		Type:       c.Type,
		LinkTarget: append([]byte(nil), c.LinkTarget...),
		NLink:      1,
		CreateTime: now,
		ModifyTime: now,
	}
	if c.Type == proto.TypeDir {
		ino.NLink = 2
	}
	p.inodeTree.ReplaceOrInsert(inodeItem{ino: ino})
	p.maxInodeID = next
	return ino.Copy(), nil
}

// CreateRootInode installs the volume root directory (inode 1). It is only
// valid on the partition owning id 1 and is idempotent.
func (p *Partition) CreateRootInode() error {
	_, err := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeDir})
	return err
}

func (p *Partition) applyUnlinkInode(c *command) (any, error) {
	ino := p.getInode(c.Inode)
	if ino == nil {
		return nil, fmt.Errorf("meta: inode %d: %w", c.Inode, util.ErrNotFound)
	}
	if ino.NLink > 0 {
		ino.NLink--
	}
	// Threshold: 0 for files, 2 for directories (Section 2.6.3). At or
	// below it the inode is marked deleted; content cleanup is
	// asynchronous (Section 2.7.3).
	if (!ino.IsDir() && ino.NLink == 0) || (ino.IsDir() && ino.NLink < 2) {
		ino.Flag |= proto.FlagDeleteMark
	}
	ino.ModifyTime = proto.Now()
	return ino.Copy(), nil
}

func (p *Partition) applyEvictInode(c *command) (any, error) {
	ino := p.getInode(c.Inode)
	if ino == nil {
		return &proto.EvictInodeResp{}, nil // already gone: idempotent
	}
	if ino.Flag&proto.FlagDeleteMark == 0 {
		return nil, fmt.Errorf("meta: inode %d not marked deleted: %w", c.Inode, util.ErrInvalidArgument)
	}
	p.inodeTree.Delete(inodeItem{ino: &proto.Inode{Inode: c.Inode}})
	return &proto.EvictInodeResp{}, nil
}

func (p *Partition) applyLinkInode(c *command) (any, error) {
	ino := p.getInode(c.Inode)
	if ino == nil {
		return nil, fmt.Errorf("meta: inode %d: %w", c.Inode, util.ErrNotFound)
	}
	if ino.Flag&proto.FlagDeleteMark != 0 {
		return nil, fmt.Errorf("meta: inode %d is deleted: %w", c.Inode, util.ErrNotFound)
	}
	ino.NLink++
	ino.ModifyTime = proto.Now()
	return ino.Copy(), nil
}

func (p *Partition) applyCreateDentry(c *command) (any, error) {
	parent := p.getInode(c.ParentID)
	if parent == nil {
		return nil, fmt.Errorf("meta: parent inode %d: %w", c.ParentID, util.ErrNotFound)
	}
	if !parent.IsDir() {
		return nil, fmt.Errorf("meta: parent inode %d: %w", c.ParentID, util.ErrNotDir)
	}
	key := dentryItem{d: proto.Dentry{ParentID: c.ParentID, Name: c.Name}}
	if p.dentryTree.Has(key) {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", c.ParentID, c.Name, util.ErrExist)
	}
	p.dentryTree.ReplaceOrInsert(dentryItem{d: proto.Dentry{
		ParentID: c.ParentID, Name: c.Name, Inode: c.Inode, Type: c.DentryType,
	}})
	if c.DentryType == proto.TypeDir {
		parent.NLink++ // subdirectory's ".." reference
	}
	parent.ModifyTime = proto.Now()
	return &proto.CreateDentryResp{}, nil
}

func (p *Partition) applyDeleteDentry(c *command) (any, error) {
	key := dentryItem{d: proto.Dentry{ParentID: c.ParentID, Name: c.Name}}
	it := p.dentryTree.Delete(key)
	if it == nil {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", c.ParentID, c.Name, util.ErrNotFound)
	}
	d := it.(dentryItem).d
	if parent := p.getInode(c.ParentID); parent != nil {
		if d.Type == proto.TypeDir && parent.NLink > 0 {
			parent.NLink--
		}
		parent.ModifyTime = proto.Now()
	}
	return &proto.DeleteDentryResp{Inode: d.Inode}, nil
}

func (p *Partition) applyUpdateDentry(c *command) (any, error) {
	key := dentryItem{d: proto.Dentry{ParentID: c.ParentID, Name: c.Name}}
	it := p.dentryTree.Get(key)
	if it == nil {
		return nil, fmt.Errorf("meta: dentry %d/%q: %w", c.ParentID, c.Name, util.ErrNotFound)
	}
	d := it.(dentryItem).d
	old := d.Inode
	d.Inode = c.Inode
	p.dentryTree.ReplaceOrInsert(dentryItem{d: d})
	return &proto.UpdateDentryResp{OldInode: old}, nil
}

func (p *Partition) applySetAttr(c *command) (any, error) {
	ino := p.getInode(c.Inode)
	if ino == nil {
		return nil, fmt.Errorf("meta: inode %d: %w", c.Inode, util.ErrNotFound)
	}
	if c.Valid&proto.AttrSize != 0 {
		ino.Size = c.Size
		// Truncation drops extent keys entirely beyond the new size.
		kept := ino.Extents[:0]
		for _, ek := range ino.Extents {
			if ek.FileOffset < c.Size {
				kept = append(kept, ek)
			}
		}
		ino.Extents = kept
		ino.Gen++
	}
	if c.Valid&proto.AttrModifyTime != 0 {
		ino.ModifyTime = c.ModifyTime
	} else {
		ino.ModifyTime = proto.Now()
	}
	return &proto.SetAttrResp{}, nil
}

func (p *Partition) applyAppendExtentKeys(c *command) (any, error) {
	ino := p.getInode(c.Inode)
	if ino == nil {
		return nil, fmt.Errorf("meta: inode %d: %w", c.Inode, util.ErrNotFound)
	}
	ino.Extents = append(ino.Extents, c.Extents...)
	if c.Size > ino.Size {
		ino.Size = c.Size
	}
	ino.Gen++
	ino.ModifyTime = proto.Now()
	return &proto.AppendExtentKeysResp{}, nil
}

// applySplit cuts the partition's inode range at End (Algorithm 1 step:
// "update the inode id range from 1 to end for the original partition").
func (p *Partition) applySplit(c *command) (any, error) {
	if c.End < p.maxInodeID {
		return nil, fmt.Errorf("meta: split end %d below maxInodeID %d: %w",
			c.End, p.maxInodeID, util.ErrInvalidArgument)
	}
	p.End = c.End
	return &proto.SplitMetaPartitionResp{MaxInodeID: p.maxInodeID}, nil
}

// ---------------------------------------------------------------------------
// Reads (leader memory, no Raft round trip).

// Lookup resolves (parent, name).
func (p *Partition) Lookup(parentID uint64, name string) (*proto.LookupResp, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	it := p.dentryTree.Get(dentryItem{d: proto.Dentry{ParentID: parentID, Name: name}})
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
	return ino.Copy(), nil
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
			out = append(out, ino.Copy())
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

// BatchAllInodes returns a copy of every live inode (fsck inventory).
func (p *Partition) BatchAllInodes() []*proto.Inode {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*proto.Inode, 0, p.inodeTree.Len())
	p.inodeTree.Ascend(func(it btree.Item) bool {
		out = append(out, it.(inodeItem).ino.Copy())
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
			out = append(out, ino.Copy())
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
	// Applied is the Raft index of the last command the state holds.
	// Zero in snapshots written before it was recorded.
	Applied uint64
}

// Snapshot implements raft.StateMachine. Clone() gives O(1) consistent
// trees, so serialization does not block concurrent reads.
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
		snap.Inodes = append(snap.Inodes, it.(inodeItem).ino.Copy())
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
