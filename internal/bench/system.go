// Package bench is the experiment harness for the paper's evaluation
// (Section 4). It drives identical mdtest-like, fio-like, and small-file
// workloads against two systems on the same in-process substrate - the
// CFS reproduction and the Ceph-like baseline (internal/cephsim) - and
// regenerates every table and figure: Table 3 and Figures 6-10, plus the
// ablations listed in DESIGN.md.
package bench

import (
	"os"
	"sync"
	"time"

	"cfs/internal/cephsim"
	"cfs/internal/client"
	"cfs/internal/cluster"
	"cfs/internal/core"
	"cfs/internal/transport"
)

// FileHandle is the per-file surface the workloads drive.
type FileHandle interface {
	WriteAt(off uint64, p []byte) error
	ReadAt(off uint64, p []byte) error
	Close() error
}

// System is one mounted client of a file system under test. Each
// simulated client process gets its own System (own caches), matching the
// paper's multi-client setup.
type System interface {
	Mkdir(path string) error
	MkdirAll(path string) error
	CreateFile(path string) error // create empty file
	Create(path string) (FileHandle, error)
	Open(path string) (FileHandle, error)
	Stat(path string) error
	ReadDirPlus(path string) (int, error)
	Remove(path string) error
}

// Factory mints one System per simulated client.
type Factory interface {
	Name() string
	NewClient() (System, error)
	Close()
}

// ---------------------------------------------------------------------------
// CFS adapters.

type cfsSystem struct{ fs *core.FileSystem }

func (s *cfsSystem) Mkdir(p string) error    { return s.fs.Mkdir(p) }
func (s *cfsSystem) MkdirAll(p string) error { return s.fs.MkdirAll(p) }

func (s *cfsSystem) CreateFile(p string) error {
	f, err := s.fs.Create(p)
	if err != nil {
		return err
	}
	return f.Close()
}

func (s *cfsSystem) Create(p string) (FileHandle, error) {
	f, err := s.fs.Create(p)
	if err != nil {
		return nil, err
	}
	return &cfsFile{f: f}, nil
}

func (s *cfsSystem) Open(p string) (FileHandle, error) {
	f, err := s.fs.Open(p)
	if err != nil {
		return nil, err
	}
	return &cfsFile{f: f}, nil
}

func (s *cfsSystem) Stat(p string) error {
	_, err := s.fs.Stat(p)
	return err
}

func (s *cfsSystem) ReadDirPlus(p string) (int, error) {
	infos, err := s.fs.ReadDirPlus(p)
	return len(infos), err
}

func (s *cfsSystem) Remove(p string) error { return s.fs.Remove(p) }

type cfsFile struct{ f *core.File }

func (c *cfsFile) WriteAt(off uint64, p []byte) error {
	_, err := c.f.WriteAt(p, int64(off))
	return err
}

func (c *cfsFile) ReadAt(off uint64, p []byte) error {
	_, err := c.f.ReadAt(p, int64(off))
	return err
}

func (c *cfsFile) Close() error { return c.f.Close() }

// CFSOptions shapes the simulated CFS cluster and its volume.
type CFSOptions struct {
	cluster.Options
	MetaPartitions int // default 4
	DataPartitions int // default 8
	// NetworkLatency is the Memory fabric's one-way delay once the volume
	// exists; TCP runs at whatever the loopback path costs.
	NetworkLatency time.Duration
	Client         client.Config
}

// CFSFactory is a running CFS cluster plus volume.
type CFSFactory struct {
	c       *cluster.Cluster
	clients []*core.FileSystem
	opts    CFSOptions
}

// Name implements Factory.
func (f *CFSFactory) Name() string { return "CFS" }

// SetupCFS boots a full in-process CFS cluster and creates a volume. The
// cluster's clock never moves: no heartbeat or maintenance loop runs, so
// a measurement sees only the work it drives.
func SetupCFS(opts CFSOptions) (*CFSFactory, error) {
	if opts.MetaPartitions == 0 {
		opts.MetaPartitions = 4
	}
	if opts.DataPartitions == 0 {
		opts.DataPartitions = 8
	}
	c, err := cluster.Boot(opts.Options)
	if err != nil {
		return nil, err
	}
	if _, err := c.CreateVolume("bench", opts.MetaPartitions, opts.DataPartitions); err != nil {
		c.Close()
		return nil, err
	}
	// Latency applies after setup so provisioning stays fast.
	if mem := c.Memory(); mem != nil && opts.NetworkLatency > 0 {
		mem.SetLatency(opts.NetworkLatency)
	}
	return &CFSFactory{c: c, opts: opts}, nil
}

// NewClient implements Factory: a fresh mount with its own caches.
func (f *CFSFactory) NewClient() (System, error) {
	fs, err := core.Mount(f.c.Net(), f.c.MasterAddr(), "bench", core.MountOptions{Client: f.opts.Client})
	if err != nil {
		return nil, err
	}
	f.clients = append(f.clients, fs)
	return &cfsSystem{fs: fs}, nil
}

// Close implements Factory.
func (f *CFSFactory) Close() {
	if mem := f.c.Memory(); mem != nil {
		mem.SetLatency(0)
	}
	for _, fs := range f.clients {
		fs.Unmount()
	}
	f.c.Close()
}

// ---------------------------------------------------------------------------
// Ceph-like adapters.

type cephSystem struct {
	cl *cephsim.Client

	mu     sync.Mutex // guards inodes; many bench procs share one client
	inodes map[string]uint64
}

func (s *cephSystem) Mkdir(p string) error    { return s.cl.Mkdir(p) }
func (s *cephSystem) MkdirAll(p string) error { return s.cl.MkdirAll(p) }

func (s *cephSystem) CreateFile(p string) error {
	ino, err := s.cl.Create(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.inodes[p] = ino
	s.mu.Unlock()
	return nil
}

func (s *cephSystem) Create(p string) (FileHandle, error) {
	ino, err := s.cl.Create(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.inodes[p] = ino
	s.mu.Unlock()
	return &cephFile{cl: s.cl, ino: ino}, nil
}

func (s *cephSystem) Open(p string) (FileHandle, error) {
	s.mu.Lock()
	ino, ok := s.inodes[p]
	s.mu.Unlock()
	if !ok {
		st, err := s.cl.Stat(p)
		if err != nil {
			return nil, err
		}
		ino = st.Inode
	}
	return &cephFile{cl: s.cl, ino: ino}, nil
}

func (s *cephSystem) Stat(p string) error {
	_, err := s.cl.Stat(p)
	return err
}

func (s *cephSystem) ReadDirPlus(p string) (int, error) {
	infos, err := s.cl.ReadDirPlus(p)
	return len(infos), err
}

func (s *cephSystem) Remove(p string) error { return s.cl.Remove(p) }

type cephFile struct {
	cl  *cephsim.Client
	ino uint64
}

func (c *cephFile) WriteAt(off uint64, p []byte) error { return c.cl.WriteAt(c.ino, off, p) }

func (c *cephFile) ReadAt(off uint64, p []byte) error {
	data, err := c.cl.ReadAt(c.ino, off, uint32(len(p)))
	copy(p, data)
	return err
}

func (c *cephFile) Close() error { return nil }

// CephOptions shapes the baseline cluster.
type CephOptions struct {
	Config         cephsim.Config
	NetworkLatency time.Duration
}

// CephFactory is a running baseline cluster.
type CephFactory struct {
	nw      *transport.Memory
	cluster *cephsim.Cluster
	dir     string
}

// Name implements Factory.
func (f *CephFactory) Name() string { return "Ceph-sim" }

// SetupCeph boots the baseline cluster.
func SetupCeph(opts CephOptions) (*CephFactory, error) {
	dir, err := os.MkdirTemp("", "cephbench")
	if err != nil {
		return nil, err
	}
	nw := transport.NewMemory()
	cfg := opts.Config
	cfg.Dir = dir
	cluster, err := cephsim.StartCluster(nw, cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if opts.NetworkLatency > 0 {
		nw.SetLatency(opts.NetworkLatency)
	}
	return &CephFactory{nw: nw, cluster: cluster, dir: dir}, nil
}

// NewClient implements Factory.
func (f *CephFactory) NewClient() (System, error) {
	return &cephSystem{cl: f.cluster.NewClient(f.nw), inodes: make(map[string]uint64)}, nil
}

// Close implements Factory.
func (f *CephFactory) Close() {
	f.nw.SetLatency(0)
	f.cluster.Close()
	os.RemoveAll(f.dir)
}
