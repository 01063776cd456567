package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzAdmit: an upload is untrusted input. Admit either rejects it with
// nothing written and Rejected counted, or publishes it so that GetRaw
// returns the uploaded bytes exactly and Get the entry Admit returned.
func FuzzAdmit(f *testing.F) {
	src, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := Key("fuzz-trace", "fuzz-cfg")
	if err := src.Put(&Entry{Key: key, Windows: 2, Result: sampleResult(f)}); err != nil {
		f.Fatal(err)
	}
	raw, _ := src.GetRaw(key)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})

	j, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rejected := j.Stats().Rejected
		e, err := j.Admit(key, data)
		if err != nil {
			if n, _ := j.Len(); n != 0 {
				t.Fatalf("rejected upload left %d entries", n)
			}
			if got := j.Stats().Rejected; got != rejected+1 {
				t.Fatalf("Rejected = %d, want %d", got, rejected+1)
			}
			return
		}
		defer j.files.Remove(key)
		if got, ok := j.GetRaw(key); !ok || !bytes.Equal(got, data) {
			t.Fatal("admitted upload does not read back byte-identically")
		}
		if got, ok := j.Get(key); !ok || !reflect.DeepEqual(got, e) {
			t.Fatal("admitted entry does not decode to what Admit returned")
		}
	})
}
