// Package pkt provides packet buffers, a free-list pool, and from-scratch
// Ethernet/IPv4/UDP header parsing and serialization.
//
// Buffers are single-owner: whichever component holds a *Buf is responsible
// for eventually freeing it (or handing it off). Copies — the expensive
// operation that vhost-user imposes and ptnet avoids — are always explicit.
//
// # Lazy materialization
//
// Synthetic generator frames are identical per (FrameSpec, flow), so a Buf
// can carry a shared *Template instead of materialized bytes: Bytes()
// builds the contents on first use with a single copy, and CopyFrom/Clone
// on an unmaterialized buffer moves only metadata. Simulated cycle cost is
// charged by the components exactly as before — host bytes moving (or not)
// is invisible to the simulation. Anything that edits or exports real
// bytes (probe stamping, header rewrites, pcap capture) goes through
// Bytes() and therefore transparently forces materialization; header
// parsing reads the shared image through View().
//
// Backing storage is lazy too: Pool.Get hands out only a buffer header,
// and a buffer's bufSize bytes are carved from the pool's data slab the
// first time real bytes are needed (Bytes, View on a non-template buffer,
// materialization, CopyFrom from a materialized source, FrameSpec.Build).
// A buffer that stays template-backed for its whole life never owns any;
// a recycled buffer keeps whatever storage it already has.
package pkt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// Buf is one packet buffer plus simulation metadata.
type Buf struct {
	data []byte // backing storage: nil until store carves it
	len  int    // frame length

	// tmpl, when non-nil, is the frame image this buffer logically
	// contains; data[:len] is stale until materialize copies it in.
	tmpl *Template

	// Seq is a generator-assigned sequence number.
	Seq uint64
	// Probe marks latency-measurement (PTP) packets.
	Probe bool
	// TxStamp is the probe's transmit timestamp: hardware (taken by the
	// NIC as the frame hits the wire) in p2p/loopback runs, software
	// (taken by the generator) in v2v runs.
	TxStamp units.Time
	// Ingress is the time the frame finished arriving at the last
	// receiving port (hardware RX timestamp).
	Ingress units.Time
	// AvailAt gates visibility to the next consumer (virtio guest
	// notification delay); zero means immediately visible.
	AvailAt units.Time

	pool   *Pool
	inPool bool
	// nextFree links buffers on a shared pool's remote free stack
	// (see Pool.MarkShared); nil whenever the buffer is checked out.
	nextFree *Buf
}

// Bytes returns the frame contents, materializing them first if the buffer
// is template-backed.
func (b *Buf) Bytes() []byte {
	if b.tmpl != nil {
		b.materialize()
	} else {
		b.store()
	}
	return b.data[:b.len]
}

// View returns the frame contents for read-only inspection without forcing
// materialization: a template-backed buffer exposes the shared image
// directly. Callers must not write through the returned slice — header
// parsing, MAC learning, and flow-key extraction belong here; rewrites go
// through Bytes(). (A buffer whose logical length outgrew its template
// image falls back to materializing, so the zero-extension is visible.)
func (b *Buf) View() []byte {
	if b.tmpl != nil {
		if b.len <= len(b.tmpl.data) {
			return b.tmpl.data[:b.len]
		}
		b.materialize()
	} else {
		b.store()
	}
	return b.data[:b.len]
}

// Template returns the shared frame image backing b, or nil once the
// buffer has been materialized.
func (b *Buf) Template() *Template { return b.tmpl }

// materialize copies the template image into the buffer (one memcpy; the
// template is pre-serialized). Lengths can disagree only after an explicit
// SetLen on a lazy buffer; the image is truncated or zero-extended to
// match, mirroring what Build-then-SetLen would have produced.
func (b *Buf) materialize() {
	t := b.tmpl
	b.tmpl = nil
	b.store()
	n := copy(b.data[:b.len], t.data)
	for i := n; i < b.len; i++ {
		b.data[i] = 0
	}
}

// store gives b its backing storage on first need. Storage never carved
// reads as zeros, exactly like a freshly carved slab, so deferring the
// carve changes no byte any reader sees.
func (b *Buf) store() {
	if b.data == nil {
		b.data = b.pool.carve()
	}
}

// Materialized reports whether the frame's bytes live in the buffer itself
// (false while the buffer only references a Template).
func (b *Buf) Materialized() bool { return b.tmpl == nil }

// SetTemplate makes b a metadata-only frame whose logical contents are t's
// image. No bytes move until someone calls Bytes().
func (b *Buf) SetTemplate(t *Template) {
	b.SetLen(len(t.data))
	b.tmpl = t
}

// Len returns the frame length in bytes.
func (b *Buf) Len() int { return b.len }

// SetLen resizes the frame within the buffer's capacity.
func (b *Buf) SetLen(n int) {
	if n < 0 || n > b.pool.bufSize {
		panic(fmt.Sprintf("pkt: SetLen(%d) outside capacity %d", n, b.pool.bufSize))
	}
	b.len = n
}

// CopyFrom replaces b's contents and metadata with src's. This is the
// primitive behind vhost-user's per-packet copies. If src is still
// template-backed, only the template reference moves — the simulated copy
// cost is charged by the caller either way; host bytes are not part of the
// simulation.
func (b *Buf) CopyFrom(src *Buf) {
	b.SetLen(src.len)
	if src.tmpl != nil {
		b.tmpl = src.tmpl
	} else {
		b.tmpl = nil
		copy(b.Bytes(), src.Bytes())
	}
	b.Seq = src.Seq
	b.Probe = src.Probe
	b.TxStamp = src.TxStamp
	b.Ingress = src.Ingress
	b.AvailAt = src.AvailAt
}

// Free returns the buffer to its pool. Freeing a pool-less buffer is a no-op;
// double frees panic.
func (b *Buf) Free() {
	if b.pool != nil {
		b.pool.put(b)
	}
}

// Template is an immutable, pre-serialized frame image shared by every
// lazy buffer of one (FrameSpec, flow) pair. Building it costs one full
// header serialization; every frame emitted against it afterwards costs
// nothing until (unless) its bytes are inspected.
type Template struct {
	data []byte
	id   uint64
}

// templateIDs hands out process-unique template identities. Atomic so
// templates may be built from any partition goroutine; the counter's order
// is irrelevant — only uniqueness matters.
var templateIDs atomic.Uint64

// NewTemplate wraps data (which the caller must never mutate afterwards)
// as a frame image with a fresh identity.
func NewTemplate(data []byte) *Template {
	return &Template{data: data, id: templateIDs.Add(1)}
}

// ID returns the template's process-unique, always-nonzero identity.
// Frames sharing a template are byte-identical, so the switch data planes
// key their classification memos on it.
func (t *Template) ID() uint64 { return t.id }

// Len returns the image's frame length.
func (t *Template) Len() int { return len(t.data) }

// Image returns a copy of the frame image (diagnostics/tests; the shared
// image itself must never be handed out mutable).
func (t *Template) Image() []byte {
	out := make([]byte, len(t.data))
	copy(out, t.data)
	return out
}

// Derive returns a new template whose image is t's with edit applied.
// This is how a VNF's deterministic header rewrite (l2fwd's MAC swap)
// stays template-backed: the edit runs once per distinct input template
// and every subsequent frame moves only its template pointer.
func (t *Template) Derive(edit func(data []byte)) *Template {
	data := make([]byte, len(t.data))
	copy(data, t.data)
	edit(data)
	return NewTemplate(data)
}

// Pool is a free list of equal-capacity buffers. It grows on demand so that
// component buffering limits (rings) — not the pool — bound memory use.
// Growth carves buffer headers out of slab allocations (DPDK mempool
// style) so warming a pool to its high-water mark costs a handful of
// allocations, not one per buffer. Backing bytes come from a second slab,
// carved per buffer only when it first needs real bytes (Buf.store), so
// template-backed traffic never allocates or zeroes frame storage.
type Pool struct {
	free    []*Buf
	bufSize int
	live    int // checked-out buffers
	total   int // ever allocated

	slabBufs []Buf // unclaimed headers

	// slabData is unclaimed backing storage. A buffer may first need
	// bytes on whichever partition it has travelled to, so carving is
	// serialized by slabMu; it happens at most once per buffer.
	slabMu   sync.Mutex
	slabData []byte

	// shared marks a pool whose buffers may be freed from goroutines
	// other than the owner's (partitioned runs: a generator-side sink
	// frees frames the SUT partition's pool allocated, and vice versa).
	// Frees then route through remote — a lock-free Treiber stack —
	// which only the owning partition empties (Reclaim). Sequential
	// pools never set it and pay nothing.
	shared bool
	remote atomic.Pointer[Buf]
}

// slabCount is how many buffers each slab allocation provides.
const slabCount = 256

// NewPool returns a pool of buffers with the given capacity each.
func NewPool(bufSize int) *Pool {
	if bufSize <= 0 {
		panic("pkt: non-positive buffer size")
	}
	return &Pool{bufSize: bufSize}
}

// Get returns a zero-metadata buffer of the given frame length.
func (p *Pool) Get(frameLen int) *Buf {
	if frameLen > p.bufSize {
		panic(fmt.Sprintf("pkt: frame %dB exceeds pool buffer size %dB", frameLen, p.bufSize))
	}
	if len(p.free) == 0 {
		p.Reclaim() // cheaper than growing if remote frees are waiting
	}
	var b *Buf
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if len(p.slabBufs) == 0 {
			p.slabBufs = make([]Buf, slabCount)
		}
		b = &p.slabBufs[0]
		p.slabBufs = p.slabBufs[1:]
		b.pool = p
		p.total++
	}
	p.live++
	b.inPool = false
	b.len = frameLen
	b.tmpl = nil
	b.Seq = 0
	b.Probe = false
	b.TxStamp = 0
	b.Ingress = 0
	b.AvailAt = 0
	return b
}

// carve returns bufSize bytes of fresh, zeroed backing storage.
func (p *Pool) carve() []byte {
	p.slabMu.Lock()
	defer p.slabMu.Unlock()
	if len(p.slabData) == 0 {
		p.slabData = make([]byte, slabCount*p.bufSize)
	}
	d := p.slabData[:p.bufSize:p.bufSize]
	p.slabData = p.slabData[p.bufSize:]
	return d
}

// Clone returns a pool buffer holding a copy of src (metadata-only if src
// is still template-backed).
func (p *Pool) Clone(src *Buf) *Buf {
	b := p.Get(src.len)
	b.CopyFrom(src)
	return b
}

func (p *Pool) put(b *Buf) {
	if b.inPool {
		panic("pkt: double free")
	}
	b.inPool = true
	b.tmpl = nil // drop the template reference while parked
	if p.shared {
		// Possibly-foreign free: park on the remote stack; the owner
		// folds it back into the free list at its next Reclaim.
		for {
			head := p.remote.Load()
			b.nextFree = head
			if p.remote.CompareAndSwap(head, b) {
				return
			}
		}
	}
	p.live--
	p.free = append(p.free, b)
}

// MarkShared flags the pool as freed-from-anywhere: put() routes through a
// lock-free return stack instead of the (owner-only) free list. The
// partitioned engine marks every pool, since frames allocated on one side
// of a cut are routinely freed on the other. One-way door by design — the
// flag is only ever set before concurrent execution starts.
func (p *Pool) MarkShared() { p.shared = true }

// Reclaim folds remotely freed buffers back into the free list. Owner-only:
// the partitioned engine calls it at every dispatch-window edge, when the
// free list runs dry in Get, and before Trim. Between a remote free and the
// next Reclaim, Live overcounts by the buffers still parked on the stack.
func (p *Pool) Reclaim() {
	if !p.shared {
		return
	}
	b := p.remote.Swap(nil)
	for b != nil {
		next := b.nextFree
		b.nextFree = nil
		p.live--
		p.free = append(p.free, b)
		b = next
	}
}

// Trim releases free-list buffers beyond max, letting the GC reclaim their
// backing storage. Without it the free list pins every buffer a cell ever
// allocated (its high-water mark) for the life of the pool; callers that
// finish a measurement release the pool with Trim(0).
func (p *Pool) Trim(max int) {
	p.Reclaim()
	if max < 0 {
		max = 0
	}
	if len(p.free) <= max {
		return
	}
	for i := max; i < len(p.free); i++ {
		p.free[i] = nil
	}
	p.free = p.free[:max]
	if max == 0 {
		p.free = nil // release the spine too
		p.slabBufs = nil
		p.slabMu.Lock()
		p.slabData = nil
		p.slabMu.Unlock()
	}
}

// Live returns the number of buffers currently checked out.
func (p *Pool) Live() int { return p.live }

// Allocated returns the number of buffers ever created by the pool.
func (p *Pool) Allocated() int { return p.total }

// Idle returns the number of buffers parked on the free list.
func (p *Pool) Idle() int { return len(p.free) }
