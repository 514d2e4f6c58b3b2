package pkt

import (
	"bytes"
	"sync"
	"testing"
)

// TestTemplateLifecycleNeverStores follows a buffer that only ever carries
// a template — stamped, read through View, copied and cloned into other
// buffers, freed and recycled — and checks that no buffer and no pool slab
// ever gets backing storage.
func TestTemplateLifecycleNeverStores(t *testing.T) {
	p := NewPool(2048)
	tmpl := lazySpec(64).Template(3)
	for round := 0; round < 3; round++ {
		src := p.Get(64)
		src.SetTemplate(tmpl)
		if !bytes.Equal(src.View(), tmpl.Image()) {
			t.Fatal("View of a template-backed buffer differs from the image")
		}
		dst := p.Get(64)
		dst.CopyFrom(src)
		clone := p.Clone(src)
		for _, b := range []*Buf{src, dst, clone} {
			if b.data != nil {
				t.Fatalf("round %d: template-backed buffer got storage", round)
			}
			b.Free()
		}
		if p.slabData != nil {
			t.Fatalf("round %d: pool carved a data slab", round)
		}
	}
	if p.Allocated() != 3 {
		t.Fatalf("allocated = %d, want 3 (recycled headers)", p.Allocated())
	}
}

// TestStorageLessMatchesStored checks that every first-materialization
// path gives a storage-less buffer exactly the bytes a buffer that
// already owned storage gets from the same operation.
func TestStorageLessMatchesStored(t *testing.T) {
	spec := lazySpec(64)
	tmpl := spec.Template(5)
	ops := []struct {
		name  string
		setup func(b *Buf) // the logical contents before op
		op    func(b *Buf) []byte
	}{
		{"Bytes", func(b *Buf) {}, (*Buf).Bytes},
		{"View", func(b *Buf) {}, (*Buf).View},
		{"Bytes/template", func(b *Buf) { b.SetTemplate(tmpl) }, (*Buf).Bytes},
		{"View/grown-template", func(b *Buf) { b.SetTemplate(tmpl); b.SetLen(100) }, (*Buf).View},
		{"Build", func(b *Buf) {}, func(b *Buf) []byte { spec.Build(b); return b.View() }},
		{"MarkProbe", func(b *Buf) {}, func(b *Buf) []byte { MarkProbe(b, 9, 1234); return b.View() }},
		{"MarkProbe/template", func(b *Buf) { b.SetTemplate(tmpl) }, func(b *Buf) []byte { MarkProbe(b, 9, 1234); return b.View() }},
		{"PushVLAN/template", func(b *Buf) { b.SetTemplate(tmpl) }, func(b *Buf) []byte { PushVLAN(b, 42); return b.View() }},
		{"CopyFrom/materialized", func(b *Buf) {}, func(b *Buf) []byte {
			src := NewPool(2048).Get(64)
			spec.Build(src)
			PatchFlow(src, spec, 7)
			b.CopyFrom(src)
			return b.View()
		}},
	}
	for _, tc := range ops {
		lazy := NewPool(2048).Get(64)
		tc.setup(lazy)
		if lazy.data != nil {
			t.Fatalf("%s: setup gave the buffer storage", tc.name)
		}
		got := append([]byte(nil), tc.op(lazy)...)
		if lazy.data == nil {
			t.Fatalf("%s: buffer still storage-less after a byte read", tc.name)
		}

		// The eager reference: storage carved up front, as Get used to.
		eager := NewPool(2048).Get(64)
		eager.store()
		tc.setup(eager)
		want := tc.op(eager)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: storage-less bytes\n%x\nwant\n%x", tc.name, got, want)
		}
	}
}

// TestSetLenPastBufSizePanics pins the capacity check, which no longer
// has backing storage to measure against.
func TestSetLenPastBufSizePanics(t *testing.T) {
	p := NewPool(128)
	b := p.Get(64)
	b.SetLen(128) // exactly bufSize is fine
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen past bufSize did not panic")
		}
	}()
	b.SetLen(129)
}

// TestRecycledBufferKeepsStorage checks that a materialized buffer parked
// on the free list comes back with the storage it had, so steady-state
// traffic that materializes carves nothing new.
func TestRecycledBufferKeepsStorage(t *testing.T) {
	p := NewPool(2048)
	b := p.Get(64)
	b.Bytes()[0] = 0xAB
	storage := &b.data[0]
	slab := len(p.slabData)
	b.Free()

	r := p.Get(64)
	if r != b || r.data == nil || &r.data[0] != storage {
		t.Fatal("recycled buffer lost its storage")
	}
	r.SetTemplate(lazySpec(64).Template(0))
	r.Bytes()
	if &r.data[0] != storage || len(p.slabData) != slab {
		t.Fatal("materializing a recycled buffer carved new storage")
	}
}

// TestConcurrentFirstStore materializes buffers of one shared pool from
// several goroutines at once, as partitioned runs do when a frame is first
// read on the far side of a cut: every buffer must get storage of its own.
func TestConcurrentFirstStore(t *testing.T) {
	const workers, per = 4, 3 * slabCount / 2
	p := NewPool(64)
	p.MarkShared()
	bufs := make([]*Buf, workers*per)
	for i := range bufs {
		bufs[i] = p.Get(8)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(own []*Buf) {
			defer wg.Done()
			for i, b := range own {
				b.Bytes()[0] = byte(i)
			}
		}(bufs[w*per : (w+1)*per])
	}
	wg.Wait()
	seen := make(map[*byte]bool, len(bufs))
	for i, b := range bufs {
		if d := &b.data[0]; seen[d] || *d != byte(i%per) {
			t.Fatalf("buffer %d shares storage or lost its write", i)
		} else {
			seen[d] = true
		}
	}
}

// BenchmarkPoolGetTemplate measures what growing a pool costs per
// template-backed buffer: each fresh pool hands out a slab's worth of
// buffers that are stamped and kept live, so B/op is the amortized
// allocation per buffer (its header only; no frame storage).
func BenchmarkPoolGetTemplate(b *testing.B) {
	tmpl := lazySpec(64).Template(0)
	var p *Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%slabCount == 0 {
			p = NewPool(2048)
		}
		p.Get(64).SetTemplate(tmpl)
	}
}
