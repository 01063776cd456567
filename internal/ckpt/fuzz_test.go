package ckpt_test

import (
	"bytes"
	"testing"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
)

// FuzzDecodeSnapshot: a snapshot file's payload is untrusted input (a
// scrambled disk, another process's torn write). DecodeSnapshot either
// rejects it or returns the one snapshot that re-encodes to exactly those
// bytes, never allocating more than the input's size; restoring the result
// into a default core never panics (shape mismatches are errors).
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	valid := ckpt.EncodeSnapshot(warmSnapshot(f, cfg, testTrace(f), 5000))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})

	c := core.MustNew(cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := ckpt.DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(ckpt.EncodeSnapshot(ws), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		if n := decodedBytes(ws); n > len(data) {
			t.Fatalf("decoded %d bytes of slices from a %d-byte input", n, len(data))
		}
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		_ = c.RestoreWarm(ws)
	})
}

// decodedBytes totals the slice memory a decoded snapshot holds.
func decodedBytes(ws *core.WarmState) int {
	n := len(ws.BP.Counters) + 8*len(ws.BP.RSB)
	m := ws.Mem
	for _, w := range []*cache.WarmState{m.IL0, m.DL0, m.UL1, m.ITLB, m.DTLB} {
		n += 8*(len(w.Tags)+len(w.Valid)+len(w.Dirty)+len(w.LRU)+len(w.Data.Ready)) + len(w.Data.Data)
	}
	return n
}
