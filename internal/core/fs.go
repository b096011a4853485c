// Package core is the public API of the CFS reproduction: a POSIX-like
// file-system facade over a mounted volume.
//
// The paper's client exposes POSIX through FUSE; the syscall shim is
// orthogonal to everything the paper designs and measures (caches,
// metadata workflows, replication paths), so this package exposes the same
// operations as a Go API instead (DESIGN.md Section 4 records the
// substitution). Consistency semantics follow Section 2.7: sequential
// consistency, no leases, no atomicity between a file's inode and dentry
// beyond "a dentry always references an existing inode".
package core

import (
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
	"time"

	"cfs/internal/client"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// FileSystem is a mounted CFS volume with a POSIX-like surface.
type FileSystem struct {
	c *client.Client
}

// MountOptions configures Mount.
type MountOptions struct {
	// Client tunes the underlying CFS client (caches, packet size,
	// retries). The zero value takes the paper's defaults.
	Client client.Config
}

// Mount connects to the resource manager at masterAddr and mounts the
// named volume.
func Mount(nw transport.Network, masterAddr, volume string, opts MountOptions) (*FileSystem, error) {
	c, err := client.Mount(nw, masterAddr, volume, opts.Client)
	if err != nil {
		return nil, err
	}
	return &FileSystem{c: c}, nil
}

// Unmount releases the client (flushes the orphan list).
func (fs *FileSystem) Unmount() { fs.c.Close() }

// Client exposes the underlying client for advanced use (benchmarks,
// ablations, fsck).
func (fs *FileSystem) Client() *client.Client { return fs.c }

// FileInfo is the stat result for one path.
type FileInfo struct {
	Name    string
	Inode   uint64
	Size    uint64
	Mode    os.FileMode
	NLink   uint32
	ModTime time.Time
	IsDir   bool
}

func infoOf(name string, ino *proto.Inode) FileInfo {
	return FileInfo{
		Name:    name,
		Inode:   ino.Inode,
		Size:    ino.Size,
		Mode:    ino.Mode(),
		NLink:   ino.NLink,
		ModTime: time.Unix(0, ino.ModifyTime),
		IsDir:   ino.IsDir(),
	}
}

// splitPath normalizes and splits an absolute path into components.
func splitPath(p string) ([]string, error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(clean, "/"), "/"), nil
}

// resolve walks a path to its inode id and type. Info is the inode when
// the leaf's Lookup carried it (see client.MetaClient.Lookup), else nil.
func (fs *FileSystem) resolve(p string) (proto.LookupResp, error) {
	parts, err := splitPath(p)
	if err != nil {
		return proto.LookupResp{}, err
	}
	cur := proto.LookupResp{Inode: proto.RootInodeID, Type: proto.TypeDir}
	for _, name := range parts {
		if cur.Type != proto.TypeDir {
			return proto.LookupResp{}, fmt.Errorf("core: %s: %w", p, util.ErrNotDir)
		}
		if cur, err = fs.c.Meta.Lookup(cur.Inode, name); err != nil {
			return proto.LookupResp{}, fmt.Errorf("core: %s: %w", p, err)
		}
	}
	return cur, nil
}

// resolveParent walks to the parent directory of p, returning (parent
// inode, leaf name).
func (fs *FileSystem) resolveParent(p string) (uint64, string, error) {
	parts, err := splitPath(p)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("core: cannot operate on the volume root: %w", util.ErrInvalidArgument)
	}
	dir := proto.RootInodeID
	for _, name := range parts[:len(parts)-1] {
		d, err := fs.c.Meta.Lookup(dir, name)
		if err != nil {
			return 0, "", fmt.Errorf("core: %s: %w", p, err)
		}
		if d.Type != proto.TypeDir {
			return 0, "", fmt.Errorf("core: %s: %w", p, util.ErrNotDir)
		}
		dir = d.Inode
	}
	return dir, parts[len(parts)-1], nil
}

// Mkdir creates a directory (mdtest DirCreation).
func (fs *FileSystem) Mkdir(p string) error {
	parent, name, err := fs.resolveParent(p)
	if err != nil {
		return err
	}
	_, err = fs.c.Meta.Create(parent, name, proto.TypeDir, nil)
	return err
}

// MkdirAll creates p and any missing ancestors.
func (fs *FileSystem) MkdirAll(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	cur := proto.RootInodeID
	for _, name := range parts {
		d, lerr := fs.c.Meta.Lookup(cur, name)
		switch {
		case lerr == nil:
			if d.Type != proto.TypeDir {
				return fmt.Errorf("core: %s: %w", p, util.ErrNotDir)
			}
			cur = d.Inode
		default:
			created, cerr := fs.c.Meta.Create(cur, name, proto.TypeDir, nil)
			if cerr != nil {
				// Concurrent creator may have won the race.
				if d2, l2 := fs.c.Meta.Lookup(cur, name); l2 == nil && d2.Type == proto.TypeDir {
					cur = d2.Inode
					continue
				}
				return cerr
			}
			cur = created.Inode
		}
	}
	return nil
}

// Create creates a regular file and opens it for writing (mdtest
// FileCreation).
func (fs *FileSystem) Create(p string) (*File, error) {
	parent, name, err := fs.resolveParent(p)
	if err != nil {
		return nil, err
	}
	ino, err := fs.c.Meta.Create(parent, name, proto.TypeFile, nil)
	if err != nil {
		return nil, err
	}
	return newFile(fs, p, ino), nil
}

// Open opens an existing file. Opening forces the cached metadata to sync
// with the meta node (Section 2.4): an inode the leaf's Lookup carried
// meets that, as the leader read it inside the same request.
func (fs *FileSystem) Open(p string) (*File, error) {
	d, err := fs.resolve(p)
	if err != nil {
		return nil, err
	}
	if d.Type == proto.TypeDir {
		return nil, fmt.Errorf("core: %s: %w", p, util.ErrIsDir)
	}
	ino := d.Info
	if ino == nil {
		if ino, err = fs.c.Meta.InodeGet(d.Inode, true /* forceSync */); err != nil {
			return nil, err
		}
	}
	return newFile(fs, p, ino), nil
}

// Stat returns file info for a path (mdtest FileStat). A cold stat whose
// Lookup is answered by the leader of the inode's partition is one round
// trip.
func (fs *FileSystem) Stat(p string) (FileInfo, error) {
	d, err := fs.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	ino := d.Info
	if ino == nil {
		if ino, err = fs.c.Meta.InodeGet(d.Inode, false); err != nil {
			return FileInfo{}, err
		}
	}
	return infoOf(path.Base(p), ino), nil
}

// ReadDir lists directory entries without attributes.
func (fs *FileSystem) ReadDir(p string) ([]proto.Dentry, error) {
	d, err := fs.resolve(p)
	if err != nil {
		return nil, err
	}
	if d.Type != proto.TypeDir {
		return nil, fmt.Errorf("core: %s: %w", p, util.ErrNotDir)
	}
	return fs.c.Meta.ReadDir(d.Inode)
}

// ReadDirPlus lists entries with attributes: one readdir plus a
// batchInodeGet per involved partition (mdtest DirStat; Section 4.2).
func (fs *FileSystem) ReadDirPlus(p string) ([]FileInfo, error) {
	ents, err := fs.ReadDir(p)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(ents))
	for i, d := range ents {
		ids[i] = d.Inode
	}
	inos, err := fs.c.Meta.BatchInodeGet(ids)
	if err != nil {
		return nil, err
	}
	byID := make(map[uint64]*proto.Inode, len(inos))
	for _, ino := range inos {
		byID[ino.Inode] = ino
	}
	out := make([]FileInfo, 0, len(ents))
	for _, d := range ents {
		if ino, ok := byID[d.Inode]; ok {
			out = append(out, infoOf(d.Name, ino))
		}
	}
	return out, nil
}

// Remove unlinks a file (mdtest FileRemoval) or removes an empty
// directory (mdtest DirRemoval). File content is freed asynchronously
// (Section 2.7.3).
func (fs *FileSystem) Remove(p string) error {
	parent, name, err := fs.resolveParent(p)
	if err != nil {
		return err
	}
	d, err := fs.c.Meta.Lookup(parent, name)
	if err != nil {
		return err
	}
	if d.Type == proto.TypeDir {
		children, err := fs.c.Meta.ReadDir(d.Inode)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("core: %s: %w", p, util.ErrNotEmpty)
		}
	}
	ino, err := fs.c.Meta.Unlink(parent, name)
	if err != nil {
		return err
	}
	fs.release(ino)
	return nil
}

// release frees a file's content once the meta node has marked its inode
// deleted, asynchronously (Section 2.7.3): one OpDataMarkDelete per
// contiguous run of its keys on one extent. Only ranges that touch merge -
// a gap may hold another file's bytes - and the data node decides whether
// a run deletes its extent or is punched out of it (Section 2.2.3). Errors
// are dropped: a failed release leaves unreferenced bytes, never loses one.
func (fs *FileSystem) release(ino *proto.Inode) {
	if ino == nil || ino.Flag&proto.FlagDeleteMark == 0 || len(ino.Extents) == 0 {
		return
	}
	go func() {
		for _, run := range extentRuns(ino.Extents) {
			_ = fs.c.Data.MarkDelete(run)
		}
	}()
}

// extentRuns merges keys into maximal runs of touching or overlapping
// ranges on one (partition, extent), in extent order.
func extentRuns(keys []proto.ExtentKey) []proto.ExtentKey {
	keys = append([]proto.ExtentKey(nil), keys...)
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.PartitionID != b.PartitionID {
			return a.PartitionID < b.PartitionID
		}
		if a.ExtentID != b.ExtentID {
			return a.ExtentID < b.ExtentID
		}
		return a.ExtentOffset < b.ExtentOffset
	})
	var runs []proto.ExtentKey
	for _, k := range keys {
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			end := last.ExtentOffset + uint64(last.Size)
			if last.PartitionID == k.PartitionID && last.ExtentID == k.ExtentID && k.ExtentOffset <= end {
				last.Size = uint32(util.MaxU64(end, k.ExtentOffset+uint64(k.Size)) - last.ExtentOffset)
				continue
			}
		}
		runs = append(runs, k)
	}
	return runs
}

// RemoveAll removes p and all children recursively.
func (fs *FileSystem) RemoveAll(p string) error {
	d, err := fs.resolve(p)
	if err != nil {
		if strings.Contains(err.Error(), "not found") {
			return nil
		}
		return err
	}
	if d.Type == proto.TypeDir {
		children, err := fs.c.Meta.ReadDir(d.Inode)
		if err != nil {
			return err
		}
		for _, c := range children {
			if err := fs.RemoveAll(path.Join(p, c.Name)); err != nil {
				return err
			}
		}
	}
	return fs.Remove(p)
}

// Link creates a hard link newPath -> the inode of oldPath (Figure 3b).
func (fs *FileSystem) Link(oldPath, newPath string) error {
	d, err := fs.resolve(oldPath)
	if err != nil {
		return err
	}
	if d.Type == proto.TypeDir {
		return fmt.Errorf("core: link on directory %s: %w", oldPath, util.ErrIsDir)
	}
	parent, name, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	return fs.c.Meta.Link(parent, name, d.Inode)
}

// Symlink creates a symbolic link at linkPath holding target.
func (fs *FileSystem) Symlink(target, linkPath string) error {
	parent, name, err := fs.resolveParent(linkPath)
	if err != nil {
		return err
	}
	_, err = fs.c.Meta.Create(parent, name, proto.TypeSymlink, []byte(target))
	return err
}

// Readlink returns a symlink's target.
func (fs *FileSystem) Readlink(p string) (string, error) {
	d, err := fs.resolve(p)
	if err != nil {
		return "", err
	}
	if d.Type != proto.TypeSymlink {
		return "", fmt.Errorf("core: %s is not a symlink: %w", p, util.ErrInvalidArgument)
	}
	ino, err := fs.c.Meta.InodeGet(d.Inode, false)
	if err != nil {
		return "", err
	}
	return string(ino.LinkTarget), nil
}

// Rename moves oldPath to newPath. The move is NOT atomic across meta
// partitions (relaxed metadata atomicity, Section 2.6): the new dentry
// appears before the old one disappears, and a crash in between leaves
// both names pointing at the inode - never a dangling dentry.
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	oldParent, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	src, err := fs.c.Meta.Lookup(oldParent, oldName)
	if err != nil {
		return err
	}
	id := src.Inode
	newParent, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	// Bump the source inode so removing the old name later cannot drop
	// it to zero, then install the destination name: a fresh dentry, or
	// a repoint of an existing one (whose previous target gets its
	// nlink released, and its content with it if that was the last link).
	if err := fs.c.Meta.LinkInode(id); err != nil {
		return err
	}
	if err := fs.c.Meta.Link(newParent, newName, id); err == nil {
		// Link() bumped nlink a second time for its own dentry; release
		// the guard bump.
		if _, uerr := fs.c.Meta.UnlinkInode(id); uerr != nil {
			return uerr
		}
	} else {
		oldDest, uerr := fs.c.Meta.UpdateDentry(newParent, newName, id)
		if uerr != nil {
			_, _ = fs.c.Meta.UnlinkInode(id) // roll back the guard bump
			return err
		}
		if oldDest != 0 && oldDest != id {
			replaced, _ := fs.c.Meta.UnlinkInode(oldDest)
			fs.release(replaced)
		}
	}
	// Then remove the source name (dentry delete + nlink--).
	if _, err := fs.c.Meta.Unlink(oldParent, oldName); err != nil {
		return err
	}
	return nil
}

// Truncate sets a file's size.
func (fs *FileSystem) Truncate(p string, size uint64) error {
	d, err := fs.resolve(p)
	if err != nil {
		return err
	}
	if d.Type != proto.TypeFile {
		return fmt.Errorf("core: truncate %s: %w", p, util.ErrIsDir)
	}
	return fs.c.Meta.Truncate(d.Inode, size)
}

// Exists reports whether a path resolves.
func (fs *FileSystem) Exists(p string) bool {
	_, err := fs.resolve(p)
	return err == nil
}
