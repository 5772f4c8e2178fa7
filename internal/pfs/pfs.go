// Package pfs models a striped parallel file system in the style of the
// Intel Paragon's PFS and the IBM SP-2's PIOFS.
//
// A file has a layout: a stripe unit, a stripe factor (how many I/O nodes
// it spans) and a first node; stripes are assigned to I/O nodes round-robin
// (PFS default; PIOFS calls the unit a BSU). A byte range therefore maps to
// a list of chunks, each addressed to one I/O node at a node-local offset.
// Node-local bytes are backed by per-file extents carved from a bump
// allocator per node, so a file's blocks on one node are (mostly)
// physically contiguous — the property that makes large sequential requests
// fast and interleaved small requests seek-bound.
//
// Transfer moves a byte range between a compute node's memory and the file:
// request and data messages cross the network, and each chunk is serviced
// by its I/O node's disk queue. Chunks on distinct I/O nodes proceed in
// parallel; chunks on one node stay in issue order.
package pfs

import (
	"errors"
	"fmt"
	"sort"

	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/sim"
	"pario/internal/stats"
)

// ErrNotExist is wrapped into Lookup's error for unknown names, so callers
// can distinguish "missing" from an I/O failure with errors.Is.
var ErrNotExist = errors.New("pfs: file does not exist")

// ErrRequestTimeout is wrapped into a chunk error when a request exceeds
// the configured per-request timeout.
var ErrRequestTimeout = errors.New("pfs: request timed out")

// Resilience configures client-side fault handling. The zero value (no
// timeout, no retries) reproduces the historical fail-stop-on-first-error
// behaviour.
type Resilience struct {
	// TimeoutSec bounds one request attempt in virtual seconds; zero
	// disables the timeout. A timed-out attempt is abandoned, not
	// cancelled: it keeps occupying the network and disk resources it
	// queued on, exactly as a real straggler would.
	TimeoutSec float64
	// Retries is how many times a failed or timed-out attempt is retried
	// before the operation aborts the run.
	Retries int
	// BackoffSec is the delay before the first retry, doubling on each
	// subsequent one — deterministic exponential backoff in virtual time.
	BackoffSec float64
}

// IOError is the structured failure of one file-system operation after all
// retries are exhausted. It is the cause passed to sim.Proc.Abort, so it
// surfaces from Engine.Run wrapped in sim.ErrAborted with the underlying
// device error still matchable via errors.Is/As.
type IOError struct {
	Op       string  // "read" or "write"
	Node     int     // FS-local I/O node index
	Attempts int     // attempts made, including the first
	Time     float64 // virtual time of the final failure
	Err      error   // last underlying cause
}

func (e *IOError) Error() string {
	return fmt.Sprintf("pfs: %s on io%d failed after %d attempt(s) at t=%.6gs: %v",
		e.Op, e.Node, e.Attempts, e.Time, e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Layout is a file's striping description.
type Layout struct {
	// StripeUnit is the bytes per stripe (64 KB on PFS, 32 KB on PIOFS).
	StripeUnit int64
	// StripeFactor is how many I/O nodes the file spans.
	StripeFactor int
	// FirstNode is the I/O node (index into the FS's node list) holding
	// stripe 0.
	FirstNode int
}

// Validate reports an invalid layout for a system with nio I/O nodes.
func (l Layout) Validate(nio int) error {
	if l.StripeUnit <= 0 {
		return fmt.Errorf("pfs: stripe unit %d must be positive", l.StripeUnit)
	}
	if l.StripeFactor < 1 || l.StripeFactor > nio {
		return fmt.Errorf("pfs: stripe factor %d out of range [1,%d]", l.StripeFactor, nio)
	}
	if l.FirstNode < 0 || l.FirstNode >= nio {
		return fmt.Errorf("pfs: first node %d out of range [0,%d)", l.FirstNode, nio)
	}
	return nil
}

// Chunk is the portion of a request that lands on a single I/O node.
type Chunk struct {
	// Node is the FS-local I/O node index.
	Node int
	// Disk is the drive within that node.
	Disk int
	// DiskOff is the drive-local byte offset.
	DiskOff int64
	// FileOff is where this chunk begins in the file.
	FileOff int64
	// Len is the chunk length in bytes.
	Len int64
}

// RequestMsgBytes is the size of a request/ack control message.
const RequestMsgBytes = 64

// extent is a contiguous drive region backing part of a file's data on one
// node.
type extent struct {
	localStart int64 // node-local file byte where the extent begins
	diskStart  int64
	length     int64
}

// FS is one parallel file system instance.
type FS struct {
	eng        *sim.Engine
	net        *network.Network
	nodes      []*ionode.Node
	nodeGlobal []int   // topology index of each I/O node
	nextFree   []int64 // bump allocator per node (byte offset on its drives)
	files      map[string]*File

	// resil, when set, turns device errors into timeout/retry/backoff
	// handling instead of immediate fail-stop. Its counters are registered
	// by SetResilience (never in New) so that runs without resilience carry
	// no extra metrics and the fault-free goldens stay byte-identical.
	resil     *Resilience
	mRetries  *stats.Counter
	mTimeouts *stats.Counter
	mAborted  *stats.Counter

	mTransfers *stats.Counter
	mChunks    *stats.Counter
	mReqBytes  *stats.Histogram // per-chunk (stripe-unit-bounded) request size
	mXferTime  *stats.Histogram // per-Transfer wall time in simulated us

	// asyncOK gates the event-driven transfer path (see pfs_async.go): the
	// node parameters must make every chunk's terminal event statically
	// known — a write-behind cache with a zero-cost copy would complete a
	// cached write with no timed event to hang the issuer's wake on.
	asyncOK bool
	// Free lists of pooled asynchronous-path continuations and per-transfer
	// scratch states.
	chunkOps []*chunkOp
	ctrs     []*xferCtr
	xfers    []*xferState
}

// xferState is the pooled per-Transfer scratch: the chunk list from range
// mapping and its per-node grouping. Each in-flight transfer owns one state
// from Transfer entry to return, so concurrent transfers never share backing
// arrays; recycling them removes the per-call slice and map allocations from
// the hot path.
type xferState struct {
	chunks []Chunk
	order  []int
	lists  [][]Chunk
}

func (fs *FS) getXfer() *xferState {
	if n := len(fs.xfers); n > 0 {
		st := fs.xfers[n-1]
		fs.xfers = fs.xfers[:n-1]
		return st
	}
	return &xferState{}
}

func (fs *FS) putXfer(st *xferState) {
	fs.xfers = append(fs.xfers, st)
}

// New builds a file system over the I/O partition of the network's
// topology. One ionode.Node is created per topology I/O node.
func New(eng *sim.Engine, net *network.Network, nodePar ionode.Params) (*FS, error) {
	topo := net.Topology()
	reg := eng.Metrics()
	fs := &FS{
		eng:        eng,
		net:        net,
		files:      make(map[string]*File),
		mTransfers: reg.Counter("pfs.transfers"),
		mChunks:    reg.Counter("pfs.chunks"),
		mReqBytes:  reg.Histogram("pfs.req_bytes", "B"),
		mXferTime:  reg.Histogram("pfs.xfer_time", "us"),
	}
	for i := 0; i < topo.NumIO(); i++ {
		n, err := ionode.New(eng, fmt.Sprintf("io%d", i), nodePar)
		if err != nil {
			return nil, err
		}
		fs.nodes = append(fs.nodes, n)
		fs.nodeGlobal = append(fs.nodeGlobal, topo.IONode(i))
	}
	fs.nextFree = make([]int64, len(fs.nodes))
	fs.asyncOK = nodePar.CacheBytes == 0 || nodePar.CacheCopyByteTime > 0
	return fs, nil
}

// Engine returns the simulation engine the FS runs on.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// NumIONodes returns the I/O node count.
func (fs *FS) NumIONodes() int { return len(fs.nodes) }

// IONode returns node i.
func (fs *FS) IONode(i int) *ionode.Node { return fs.nodes[i] }

// Network returns the interconnect the FS is attached to.
func (fs *FS) Network() *network.Network { return fs.net }

// File is a striped file. It records only metadata; contents are implicit.
type File struct {
	fs      *FS
	name    string
	layout  Layout
	size    int64      // high-water mark of written bytes
	extents [][]extent // per stripe-factor-relative node
}

// Create makes (or truncates) a file with the given layout. sizeHint, when
// positive, preallocates contiguous per-node extents for that many bytes;
// writes beyond the hint grow the file with additional extents.
//
// Re-creating an existing file with the same layout truncates it in place,
// reusing its extents: the file keeps its disk region instead of leaking it
// in the per-node bump allocator, so disk offsets — and therefore simulated
// seek distances — are stable across Create/Create cycles. A re-create with
// a different layout allocates fresh storage (the node-local geometry is
// incompatible with the old extents).
func (fs *FS) Create(name string, layout Layout, sizeHint int64) (*File, error) {
	if err := layout.Validate(len(fs.nodes)); err != nil {
		return nil, err
	}
	if old := fs.files[name]; old != nil && old.layout == layout {
		old.size = 0
		if sizeHint > 0 {
			perNode := old.nodeShare(sizeHint)
			for rel := 0; rel < layout.StripeFactor; rel++ {
				if have := old.allocated(rel); have < perNode {
					old.grow(rel, perNode-have)
				}
			}
		}
		return old, nil
	}
	f := &File{
		fs:      fs,
		name:    name,
		layout:  layout,
		extents: make([][]extent, layout.StripeFactor),
	}
	if sizeHint > 0 {
		perNode := f.nodeShare(sizeHint)
		for rel := 0; rel < layout.StripeFactor; rel++ {
			f.grow(rel, perNode)
		}
	}
	fs.files[name] = f
	return f, nil
}

// Lookup returns a previously created file, or an error wrapping
// ErrNotExist for unknown names.
func (fs *FS) Lookup(name string) (*File, error) {
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("%q: %w", name, ErrNotExist)
	}
	return f, nil
}

// SetResilience enables client-side timeout/retry handling for all
// subsequent transfers and registers the pfs.retries / pfs.timeouts /
// pfs.aborted_ops counters.
func (fs *FS) SetResilience(r Resilience) {
	if r.TimeoutSec < 0 || r.Retries < 0 || r.BackoffSec < 0 {
		panic(fmt.Sprintf("pfs: invalid resilience %+v", r))
	}
	fs.resil = &r
	reg := fs.eng.Metrics()
	fs.mRetries = reg.Counter("pfs.retries")
	fs.mTimeouts = reg.Counter("pfs.timeouts")
	fs.mAborted = reg.Counter("pfs.aborted_ops")
}

// Resilience returns the active policy, or nil when fail-stop.
func (fs *FS) Resilience() *Resilience { return fs.resil }

// nodeShare returns the node-local bytes needed to hold a file of total
// bytes under this layout.
func (f *File) nodeShare(total int64) int64 {
	su := f.layout.StripeUnit
	stripes := (total + su - 1) / su
	perNode := (stripes + int64(f.layout.StripeFactor) - 1) / int64(f.layout.StripeFactor)
	return perNode * su
}

// grow appends an extent of length n to the file's storage on relative
// node rel.
func (f *File) grow(rel int, n int64) {
	node := (f.layout.FirstNode + rel) % len(f.fs.nodes)
	exts := f.extents[rel]
	var localStart int64
	if len(exts) > 0 {
		last := exts[len(exts)-1]
		localStart = last.localStart + last.length
	}
	f.extents[rel] = append(exts, extent{
		localStart: localStart,
		diskStart:  f.fs.nextFree[node],
		length:     n,
	})
	f.fs.nextFree[node] += n
}

// allocated returns the node-local bytes backed by extents on relative
// node rel. Extents are gapless in local space, so this is the end of the
// last extent.
func (f *File) allocated(rel int) int64 {
	exts := f.extents[rel]
	if len(exts) == 0 {
		return 0
	}
	last := exts[len(exts)-1]
	return last.localStart + last.length
}

// growthQuantum is the allocation granularity when a write outruns the
// size hint.
const growthQuantum = 8 << 20

// localToDisk translates a node-local file offset to a drive offset,
// growing the file if needed. A write far past the allocated region grows
// it in a single extent (rounded up to the growth quantum) rather than one
// quantum at a time, and lookup binary-searches the sorted, gapless extent
// list — so a far-past-hint access is O(log extents), not O(extents²).
func (f *File) localToDisk(rel int, local int64) int64 {
	if end := f.allocated(rel); local >= end {
		need := local + 1 - end
		f.grow(rel, (need+growthQuantum-1)/growthQuantum*growthQuantum)
	}
	exts := f.extents[rel]
	// Find the last extent with localStart <= local; the growth above
	// guarantees it contains local.
	i := sort.Search(len(exts), func(i int) bool { return exts[i].localStart > local }) - 1
	e := exts[i]
	return e.diskStart + (local - e.localStart)
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Layout returns the file layout.
func (f *File) Layout() Layout { return f.layout }

// Size returns the written high-water mark.
func (f *File) Size() int64 { return f.size }

// mapRange splits [off, off+size) into per-I/O-node chunks in file order,
// appending them to dst so Transfer can reuse its scratch slice.
func (f *File) mapRange(dst []Chunk, off, size int64) []Chunk {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("pfs: bad range off=%d size=%d", off, size))
	}
	su := f.layout.StripeUnit
	factor := int64(f.layout.StripeFactor)
	chunks := dst
	for size > 0 {
		stripe := off / su
		within := off % su
		n := su - within
		if n > size {
			n = size
		}
		rel := int(stripe % factor)
		node := (f.layout.FirstNode + rel) % len(f.fs.nodes)
		local := (stripe/factor)*su + within
		diskOff := f.localToDisk(rel, local)
		nd := f.fs.nodes[node]
		dsk := 0
		if nd.NumDisks() > 1 {
			dsk = int((stripe / factor) % int64(nd.NumDisks()))
		}
		chunks = append(chunks, Chunk{
			Node: node, Disk: dsk, DiskOff: diskOff, FileOff: off, Len: n,
		})
		off += n
		size -= n
	}
	return chunks
}

// Transfer moves [off, off+size) between the memory of the compute node
// with topology index clientNode and the file, blocking p until all chunks
// complete. Chunks for distinct I/O nodes proceed in parallel; chunks for
// one node are issued in file order.
func (f *File) Transfer(p *sim.Proc, clientNode int, off, size int64, write bool) {
	if size == 0 {
		return
	}
	start := p.Now()
	fs := f.fs
	fs.mTransfers.Inc()
	defer func() { fs.mXferTime.Observe((p.Now() - start) * 1e6) }()
	st := fs.getXfer()
	chunks := f.mapRange(st.chunks[:0], off, size)
	st.chunks = chunks
	fs.mChunks.Add(int64(len(chunks)))
	for i := range chunks {
		fs.mReqBytes.Observe(float64(chunks[i].Len))
	}
	if write && off+size > f.size {
		f.size = off + size
	}
	// Group chunks by I/O node, preserving order within a node. Stripe
	// factors are small, so a linear scan of the first-touch order beats a
	// map — and the grouping reuses the pooled state's backing arrays.
	order := st.order[:0]
	for i := range chunks {
		c := chunks[i]
		pos := -1
		for j, node := range order {
			if node == c.Node {
				pos = j
				break
			}
		}
		if pos == -1 {
			pos = len(order)
			order = append(order, c.Node)
			if pos < len(st.lists) {
				st.lists[pos] = st.lists[pos][:0]
			} else {
				st.lists = append(st.lists, nil)
			}
		}
		st.lists[pos] = append(st.lists[pos], c)
	}
	st.order = order
	if fs.resil == nil && fs.asyncOK {
		// Healthy fast path: drive the chunks as engine events instead of
		// blocked processes — byte-identical output, none of the goroutine
		// handoffs (see pfs_async.go).
		f.transferAsync(p, clientNode, st.lists, order, write)
		fs.putXfer(st)
		return
	}
	if len(order) == 1 {
		f.serveNode(p, clientNode, st.lists[0], write)
		fs.putXfer(st)
		return
	}
	wg := sim.NewWaitGroup(p.Engine())
	for i := range order {
		list := st.lists[i]
		wg.Go("pfs.xfer", func(c *sim.Proc) {
			f.serveNode(c, clientNode, list, write)
		})
	}
	wg.Wait(p)
	fs.putXfer(st)
}

// serveNode performs an ordered chunk list against one I/O node. A chunk
// that still fails after the resilience policy is exhausted fail-stops the
// run with a structured IOError — never a panic.
func (f *File) serveNode(p *sim.Proc, clientNode int, list []Chunk, write bool) {
	for _, c := range list {
		if err := f.chunkResilient(p, clientNode, c, write); err != nil {
			p.Abort(err)
		}
	}
}

// doChunk performs one chunk end-to-end: request message, device access,
// and (for reads) the data reply. It returns the device error, if any.
func (f *File) doChunk(p *sim.Proc, clientNode int, c Chunk, write bool) error {
	fs := f.fs
	global := fs.nodeGlobal[c.Node]
	nd := fs.nodes[c.Node]
	if write {
		// Data travels with the request to the I/O node.
		fs.net.Send(p, clientNode, global, RequestMsgBytes+c.Len)
		return nd.Access(p, c.Disk, c.DiskOff, c.Len, true)
	}
	fs.net.Send(p, clientNode, global, RequestMsgBytes)
	if err := nd.Access(p, c.Disk, c.DiskOff, c.Len, false); err != nil {
		return err
	}
	fs.net.Send(p, global, clientNode, c.Len)
	return nil
}

// attemptChunk runs one attempt of a chunk under the per-request timeout.
// The attempt executes in a child process racing a timer on a shared
// signal: whichever settles first decides the outcome, and the loser sees
// the settled flag and stands down. The attempt child is spawned before the
// timer, so a tie resolves to success — deterministically, in virtual time.
// An abandoned (timed-out) attempt keeps running: it still holds whatever
// queue positions it reached, as a real straggler request would.
func (f *File) attemptChunk(p *sim.Proc, clientNode int, c Chunk, write bool) error {
	r := f.fs.resil
	if r == nil || r.TimeoutSec <= 0 {
		return f.doChunk(p, clientNode, c, write)
	}
	eng := p.Engine()
	sig := sim.NewSignal(eng)
	var (
		settled  bool
		timedOut bool
		res      error
	)
	eng.Spawn("pfs.attempt", func(w *sim.Proc) {
		err := f.doChunk(w, clientNode, c, write)
		if !settled {
			settled, res = true, err
			sig.Fire()
		}
	})
	eng.Spawn("pfs.timer", func(w *sim.Proc) {
		w.Delay(r.TimeoutSec)
		if !settled {
			settled, timedOut = true, true
			sig.Fire()
		}
	})
	p.WaitSignal(sig)
	if timedOut {
		f.fs.mTimeouts.Inc()
		return fmt.Errorf("%w after %gs (%s io%d)",
			ErrRequestTimeout, r.TimeoutSec, opName(write), c.Node)
	}
	return res
}

// chunkResilient drives one chunk through the retry policy. Without a
// policy it is a single fail-stop attempt. With one, each failure or
// timeout is retried up to Retries times behind exponential backoff; only
// exhaustion yields the structured IOError.
func (f *File) chunkResilient(p *sim.Proc, clientNode int, c Chunk, write bool) error {
	fs := f.fs
	attempts := 1
	if r := fs.resil; r != nil {
		attempts = r.Retries + 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			fs.mRetries.Inc()
			if back := fs.resil.BackoffSec * float64(int64(1)<<uint(i-1)); back > 0 {
				p.Delay(back)
			}
		}
		err := f.attemptChunk(p, clientNode, c, write)
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if fs.mAborted == nil {
		// Fail-stop without a policy: register the counter now, on the
		// faulted path only, so healthy runs never list it.
		fs.mAborted = fs.eng.Metrics().Counter("pfs.aborted_ops")
	}
	fs.mAborted.Inc()
	return &IOError{Op: opName(write), Node: c.Node, Attempts: attempts, Time: p.Now(), Err: lastErr}
}
