package journal

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

// sampleResult produces a real simulation Result so the round-trip test
// exercises every populated field, not a zero value.
func sampleResult(t testing.TB) *core.Result {
	t.Helper()
	tr := workload.Generate(workload.SpecInt(), 3000, 1)
	res, err := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEntryRoundTrip is the journal's core guarantee: a Get after a Put
// returns a Result bit-identical to the recorded one (reflect.DeepEqual
// over every counter and float).
func TestEntryRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("trace-hash", "cfg-hash", core.EngineVersion)
	if err := j.Put(&Entry{Key: key, Windows: 3, Result: res}); err != nil {
		t.Fatal(err)
	}
	got, ok := j.Get(key)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if got.Windows != 3 {
		t.Errorf("Windows = %d, want 3", got.Windows)
	}
	if !reflect.DeepEqual(got.Result, res) {
		t.Errorf("replayed Result differs from recorded one:\ngot  %+v\nwant %+v", got.Result, res)
	}
	if s := j.Stats(); s.Hits != 1 || s.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 0 corrupt", s)
	}
}

// TestKeyDerivation: keys are injective over part boundaries and
// deterministic.
func TestKeyDerivation(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: shifted parts collide")
	}
	if Key("x", "y") != Key("x", "y") {
		t.Error("key is not deterministic")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("x")))
	}
}

// TestMissAndCorruptEntries: absent keys miss; truncated and scrambled
// entries are rejected by the integrity check and treated as misses, then
// repaired by the next Put.
func TestMissAndCorruptEntries(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(Key("absent")); ok {
		t.Fatal("Get hit an absent key")
	}

	res := sampleResult(t)
	key := Key("k")
	e := &Entry{Key: key, Windows: 1, Result: res}

	// Truncated at several byte counts, including 0 and header-only.
	payload, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	full := append(j.files.header(payload), payload...)
	for _, keep := range []int{0, 5, len(full) / 2, len(full) - 1} {
		if err := j.PutTruncated(e, keep); err != nil {
			t.Fatal(err)
		}
		if _, ok := j.Get(key); ok {
			t.Errorf("Get accepted an entry truncated to %d bytes", keep)
		}
	}

	// Scrambled payload byte (length intact, checksum must catch it).
	if err := j.Put(e); err != nil {
		t.Fatal(err)
	}
	path := j.files.file(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(key); ok {
		t.Fatal("Get accepted a scrambled entry")
	}
	if s := j.Stats(); s.Corrupt == 0 {
		t.Error("corrupt entries were not counted")
	}

	// A fresh Put repairs the slot.
	if err := j.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Get(key); !ok || !reflect.DeepEqual(got.Result, res) {
		t.Fatal("Put did not repair a corrupt entry")
	}
}

// TestWrongKeyAndStrayFiles: an entry stored under the wrong name is
// rejected, and temp files never count as entries.
func TestWrongKeyAndStrayFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	if err := j.Put(&Entry{Key: Key("a"), Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	// Copy the valid entry under a different key's file name.
	data, err := os.ReadFile(j.files.file(Key("a")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j.files.file(Key("b")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(Key("b")); ok {
		t.Fatal("Get accepted an entry whose recorded key mismatches its file name")
	}

	if err := os.WriteFile(filepath.Join(dir, ".put-stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // a's entry + b's (corrupt, but well-named) copy
		t.Errorf("Len = %d, want 2", n)
	}
}

// TestConcurrentPuts: many goroutines writing (identical content, per the
// keying contract) and reading the same key never corrupt the entry.
func TestConcurrentPuts(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("shared")
	e := &Entry{Key: key, Windows: 2, Result: res}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := j.Put(e); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := j.Get(key); ok {
					if !reflect.DeepEqual(got.Result, res) {
						t.Error("concurrent reader observed a corrupt entry")
						return
					}
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}
