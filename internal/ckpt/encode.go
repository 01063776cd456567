package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"

	"lowvcc/internal/cache"
	"lowvcc/internal/core"
	"lowvcc/internal/predictor"
	"lowvcc/internal/sram"
)

// The wire encoding is deliberately primitive: fixed-width little-endian
// scalars, length-prefixed slices, fields in struct order. A snapshot is
// six length-prefixed sections in a fixed order — il0, dl0, ul1, itlb,
// dtlb, bp — each holding one component's fields. Two properties matter:
// it is canonical (the same warm state encodes to the same bytes and
// DecodeSnapshot accepts exactly the bytes EncodeSnapshot writes, which is
// what makes the vcc-independence tests byte-comparable), and it is
// self-delimiting (the decoder bounds-checks every read, so a scrambled
// snapshot file fails loudly instead of producing a plausible snapshot).

type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) bytes(v []byte) {
	e.u64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// section appends a length-prefixed section whose body fill writes.
func (e *encoder) section(fill func()) {
	at := len(e.buf)
	e.u64(0)
	fill()
	binary.LittleEndian.PutUint64(e.buf[at:], uint64(len(e.buf)-at-8))
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("ckpt: truncated snapshot at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// u32 reads a u64 field that must hold a 32-bit value, so every accepted
// encoding is the one the encoder writes.
func (d *decoder) u32() uint32 {
	v := d.u64()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("ckpt: 32-bit field holds %#x at offset %d", v, d.off-8)
	}
	return uint32(v)
}

// lenField reads a slice length and sanity-bounds it against the remaining
// payload so a scrambled length cannot drive a huge allocation.
func (d *decoder) lenField(width int) int {
	n := d.u64()
	if d.err == nil && n > uint64((len(d.buf)-d.off)/width) {
		d.err = fmt.Errorf("ckpt: implausible length %d at offset %d", n, d.off)
	}
	return int(n)
}

func (d *decoder) u64s() []uint64 {
	n := d.lenField(8)
	if d.err != nil {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.u64()
	}
	return v
}

func (d *decoder) bytes() []byte {
	n := d.lenField(1)
	if d.err != nil {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.buf[d.off:d.off+n])
	d.off += n
	return v
}

// section decodes one length-prefixed section with body, which must
// consume it exactly.
func (d *decoder) section(body func(*decoder)) {
	n := d.lenField(1)
	if d.err != nil {
		return
	}
	sub := &decoder{buf: d.buf[d.off : d.off+n]}
	body(sub)
	d.off += n
	d.err = sub.done()
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ckpt: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (e *encoder) cache(w *cache.WarmState) {
	e.u64s(w.Tags)
	e.u64s(w.Valid)
	e.u64s(w.Dirty)
	e.u64s(w.LRU)
	e.u64(w.LRUTick)
	e.bytes(w.Data.Data)
	e.u64s(w.Data.Ready)
}

func (d *decoder) cache() *cache.WarmState {
	w := &cache.WarmState{
		Tags:  d.u64s(),
		Valid: d.u64s(),
		Dirty: d.u64s(),
		LRU:   d.u64s(),
	}
	w.LRUTick = d.u64()
	w.Data = &sram.WarmState{Data: d.bytes(), Ready: d.u64s()}
	return w
}

func (e *encoder) bp(w *predictor.WarmState) {
	e.bytes(w.Counters)
	e.u64(uint64(w.History))
	e.u64s(w.RSB)
	e.u64(uint64(uint32(w.Top)))
}

func (d *decoder) bp() *predictor.WarmState {
	w := &predictor.WarmState{Counters: d.bytes()}
	w.History = d.u32()
	w.RSB = d.u64s()
	w.Top = int32(d.u32())
	return w
}

// EncodeSnapshot renders a snapshot's canonical byte form, the payload of
// its file on disk. Two snapshots are identical warm states iff their
// encodings are equal — the vcc-independence tests compare these bytes
// directly.
func EncodeSnapshot(ws *core.WarmState) []byte {
	e := &encoder{}
	for _, c := range []*cache.WarmState{ws.Mem.IL0, ws.Mem.DL0, ws.Mem.UL1, ws.Mem.ITLB, ws.Mem.DTLB} {
		e.section(func() { e.cache(c) })
	}
	e.section(func() { e.bp(ws.BP) })
	return e.buf
}

// DecodeSnapshot is EncodeSnapshot's inverse. It rejects any input that is
// not exactly some snapshot's encoding, and never allocates more than the
// input's size; the shapes are checked later, by core.RestoreWarm.
func DecodeSnapshot(buf []byte) (*core.WarmState, error) {
	d := &decoder{buf: buf}
	mem := &cache.HierarchyWarmState{}
	for _, dst := range []**cache.WarmState{&mem.IL0, &mem.DL0, &mem.UL1, &mem.ITLB, &mem.DTLB} {
		d.section(func(sd *decoder) { *dst = sd.cache() })
	}
	ws := &core.WarmState{Mem: mem}
	d.section(func(sd *decoder) { ws.BP = sd.bp() })
	if err := d.done(); err != nil {
		return nil, err
	}
	return ws, nil
}
