// Package bench is the experiment harness for the paper's evaluation
// (Section 4). It drives identical mdtest-like, fio-like, and small-file
// workloads against two systems on the same in-process substrate - the
// CFS reproduction and the Ceph-like baseline (internal/cephsim) - and
// regenerates every table and figure: Table 3 and Figures 6-10, plus the
// ablations listed in DESIGN.md.
package bench

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"cfs/internal/cephsim"
	"cfs/internal/client"
	"cfs/internal/clock"
	"cfs/internal/core"
	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
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

// CFSOptions shapes the simulated CFS cluster.
type CFSOptions struct {
	MetaNodes      int // default 3
	DataNodes      int // default 3
	MetaPartitions int // default 4
	DataPartitions int // default 8
	ExtentSize     uint64
	NetworkLatency time.Duration
	Client         client.Config
	Dir            string // temp dir for extent stores; default os.MkdirTemp
	// Transport selects the wire: "" or "memory" boots the cluster on the
	// in-process network, "tcp" on real loopback sockets. TCP clusters
	// ignore NetworkLatency (the kernel loopback path is the latency) and
	// have no fault injection.
	Transport string
}

// CFSFactory is a running CFS cluster plus volume.
type CFSFactory struct {
	nw         transport.Network
	mem        *transport.Memory // nil on TCP clusters
	tcp        *transport.TCP    // nil on memory clusters
	masterAddr string
	m          *master.Master
	metas      []*meta.MetaNode
	datas      []*datanode.DataNode
	clients    []*core.FileSystem
	opts       CFSOptions
	dir        string
	ownDir     bool
}

// Name implements Factory.
func (f *CFSFactory) Name() string { return "CFS" }

// Network exposes the underlying memory transport (ablations count calls
// and inject faults); nil when the cluster runs on TCP.
func (f *CFSFactory) Network() *transport.Memory { return f.mem }

// StreamDials counts packet-stream dials on either transport (the
// session-pool ablation's currency).
func (f *CFSFactory) StreamDials() uint64 {
	if f.mem != nil {
		return f.mem.Dials()
	}
	return f.tcp.Dials()
}

// allocAddrs reserves n distinct loopback addresses by binding and
// immediately closing ephemeral-port listeners. The window between close
// and the node's own Listen is racy in principle, but the kernel does not
// hand the port back out while other ephemeral ports remain.
func allocAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	return addrs, nil
}

// Master exposes the resource manager (ablations drive CheckOnce).
func (f *CFSFactory) Master() *master.Master { return f.m }

// SetupCFS boots a full in-process CFS cluster and creates a volume.
func SetupCFS(opts CFSOptions) (*CFSFactory, error) {
	if opts.MetaNodes == 0 {
		opts.MetaNodes = 3
	}
	if opts.DataNodes == 0 {
		opts.DataNodes = 3
	}
	if opts.MetaPartitions == 0 {
		opts.MetaPartitions = 4
	}
	if opts.DataPartitions == 0 {
		opts.DataPartitions = 8
	}
	if opts.ExtentSize == 0 {
		opts.ExtentSize = 64 * util.MB
	}
	dir := opts.Dir
	ownDir := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cfsbench")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}
	f := &CFSFactory{opts: opts, dir: dir, ownDir: ownDir}
	masterAddr := "master"
	metaAddr := func(i int) string { return fmt.Sprintf("mn%d", i) }
	dataAddr := func(i int) string { return fmt.Sprintf("dn%d", i) }
	switch opts.Transport {
	case "", "memory":
		f.mem = transport.NewMemory()
		f.nw = f.mem
	case "tcp":
		// Real loopback sockets: every node needs a routable address
		// before it starts (the address doubles as the node's identity in
		// the master's tables), so reserve ephemeral ports up front.
		addrs, err := allocAddrs(1 + opts.MetaNodes + opts.DataNodes)
		if err != nil {
			f.Close()
			return nil, err
		}
		masterAddr = addrs[0]
		metaAddr = func(i int) string { return addrs[1+i] }
		dataAddr = func(i int) string { return addrs[1+opts.MetaNodes+i] }
		f.tcp = transport.NewTCP()
		f.nw = f.tcp
	default:
		f.Close()
		return nil, fmt.Errorf("bench: unknown transport %q", opts.Transport)
	}
	f.masterAddr = masterAddr
	nw := f.nw
	// A manual clock that never moves: no heartbeat or maintenance loop
	// runs, so a measurement sees only the work it drives.
	clk := clock.NewManual(time.Now())
	m, err := master.Start(nw, master.Config{
		Addr:         masterAddr,
		ReplicaCount: util.Min(3, opts.MetaNodes),
		Clock:        clk,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.m = m
	if !m.WaitLeader(10 * time.Second) {
		f.Close()
		return nil, fmt.Errorf("bench: master election timed out")
	}
	for i := 0; i < opts.MetaNodes; i++ {
		mn, err := meta.Start(nw, meta.Config{
			Addr:       metaAddr(i),
			MasterAddr: masterAddr,
			Clock:      clk,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.metas = append(f.metas, mn)
	}
	for i := 0; i < opts.DataNodes; i++ {
		dn, err := datanode.Start(nw, datanode.Config{
			Addr:       dataAddr(i),
			MasterAddr: masterAddr,
			Dir:        fmt.Sprintf("%s/dn%d", dir, i),
			Clock:      clk,
			ExtentSize: opts.ExtentSize,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.datas = append(f.datas, dn)
	}
	var resp proto.CreateVolumeResp
	if err := nw.Call(masterAddr, uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name:               "bench",
		MetaPartitionCount: opts.MetaPartitions,
		DataPartitionCount: opts.DataPartitions,
	}, &resp); err != nil {
		f.Close()
		return nil, err
	}
	// Latency applies after setup so provisioning stays fast; TCP runs at
	// whatever the loopback path costs.
	if opts.NetworkLatency > 0 && f.mem != nil {
		f.mem.SetLatency(opts.NetworkLatency)
	}
	return f, nil
}

// NewClient implements Factory: a fresh mount with its own caches.
func (f *CFSFactory) NewClient() (System, error) {
	cl := f.opts.Client
	if cl.MaxRetries == 0 {
		// Bench clients mount milliseconds after the cluster is carved;
		// under load a meta partition's first election can outlast the
		// product default's backoff budget, so give provisioning races a
		// wider window than a steady-state client would need.
		cl.MaxRetries = 10
	}
	fs, err := core.Mount(f.nw, f.masterAddr, "bench", core.MountOptions{Client: cl})
	if err != nil {
		return nil, err
	}
	f.clients = append(f.clients, fs)
	return &cfsSystem{fs: fs}, nil
}

// Close implements Factory.
func (f *CFSFactory) Close() {
	if f.mem != nil {
		f.mem.SetLatency(0)
	}
	for _, fs := range f.clients {
		fs.Unmount()
	}
	for _, dn := range f.datas {
		dn.Close()
	}
	for _, mn := range f.metas {
		mn.Close()
	}
	if f.m != nil {
		f.m.Close()
	}
	if f.ownDir {
		os.RemoveAll(f.dir)
	}
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
