package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Dir is a directory of sealed files, one per key: the storage layer under
// both the result journal (".cell") and the warm-state checkpoint store
// (".ckpt"). A sealed file is one header line — the caller's magic, the
// payload's hex SHA-256 and its decimal length — followed by the payload.
// Files are published by atomic rename, so no reader ever sees a
// half-written file under a final name; a file torn or scrambled some other
// way fails the header check and reads as corrupt, never as data.
//
// Safe for concurrent use by multiple goroutines and, thanks to atomic
// renames, by multiple processes sharing the directory.
type Dir struct {
	path, ext, magic string
	sync             atomic.Bool
	evictions        atomic.Uint64

	// Disk-budget state (SetBudget). sizes/lastUse are only populated
	// while a budget is active; all are guarded by mu.
	mu      sync.Mutex
	budget  int64
	total   int64
	sizes   map[string]int64
	lastUse map[string]int64
	useSeq  int64
	pins    map[string]int
}

// OpenDir creates the directory if needed and returns a handle whose files
// are named key+ext and sealed under magic.
func OpenDir(path, ext, magic string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("empty directory")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &Dir{path: path, ext: ext, magic: magic}, nil
}

// SetSync selects fsync-on-write: with it on, every write fsyncs the file
// before the rename and the directory after it, so a published file
// survives power loss, not just process death. Off (the default) relies on
// the atomic rename alone — crash-consistent and cheaper.
func (d *Dir) SetSync(on bool) { d.sync.Store(on) }

// Evictions counts files removed by the disk-budget policy.
func (d *Dir) Evictions() uint64 { return d.evictions.Load() }

func (d *Dir) file(key string) string { return filepath.Join(d.path, key+d.ext) }

// header renders the one header line that seals payload. It is the only
// header a reader accepts for that payload, byte for byte.
func (d *Dir) header(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	h := make([]byte, 0, len(d.magic)+2*len(sum)+24)
	h = append(h, d.magic...)
	h = append(h, ' ')
	h = hex.AppendEncode(h, sum[:])
	h = append(h, ' ')
	h = strconv.AppendInt(h, int64(len(payload)), 10)
	return append(h, '\n')
}

// unseal checks that data is a sealed file and returns its payload, a
// subslice of data. The header must be exactly the one header renders for
// that payload: a wrong magic, checksum or length, a truncated file and any
// non-canonical spelling of the header are all rejected.
func (d *Dir) unseal(key string, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%s: truncated header", key+d.ext)
	}
	payload := data[nl+1:]
	if !bytes.Equal(data[:nl+1], d.header(payload)) {
		return nil, fmt.Errorf("%s: header does not seal its %d-byte payload (torn, scrambled or foreign file)", key+d.ext, len(payload))
	}
	return payload, nil
}

// Read returns key's sealed file and its verified payload (a subslice of
// the file). An absent file returns an error matching fs.ErrNotExist; any
// other error means the file is there but corrupt. A successful read
// refreshes key's recency under a budget.
func (d *Dir) Read(key string) (data, payload []byte, err error) {
	if data, err = os.ReadFile(d.file(key)); err != nil {
		return nil, nil, err
	}
	if payload, err = d.unseal(key, data); err != nil {
		return nil, nil, err
	}
	d.touch(key)
	return data, payload, nil
}

// Has reports whether key has a file, without reading it.
func (d *Dir) Has(key string) bool {
	_, err := os.Stat(d.file(key))
	return err == nil
}

// Write seals payload and publishes it under key.
func (d *Dir) Write(key string, payload []byte) error {
	return d.publish(key, d.header(payload), payload)
}

// Remove unlinks key's file and drops it from the budget accounting.
func (d *Dir) Remove(key string) {
	os.Remove(d.file(key))
	d.mu.Lock()
	defer d.mu.Unlock()
	if size, ok := d.sizes[key]; ok {
		d.total -= size
		delete(d.sizes, key)
		delete(d.lastUse, key)
	}
}

// keys lists the keys of the directory's files, without verifying them.
// Temporary files and other names without the extension are skipped.
func (d *Dir) keys() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		if key, ok := strings.CutSuffix(e.Name(), d.ext); ok {
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// publish writes chunks (a sealed file, whole or as header and payload) to
// a unique temporary file and renames it into place, so concurrent writers
// (which, by the keying contract, carry identical content) and crashes are
// both safe.
func (d *Dir) publish(key string, chunks ...[]byte) error {
	tmp, err := os.CreateTemp(d.path, ".put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(what string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%s %s: %w", what, key+d.ext, err)
	}
	size := 0
	for _, c := range chunks {
		if _, err := tmp.Write(c); err != nil {
			return fail("writing", err)
		}
		size += len(c)
	}
	if d.sync.Load() {
		if err := tmp.Sync(); err != nil {
			return fail("syncing", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fail("closing", err)
	}
	if err := os.Rename(tmpName, d.file(key)); err != nil {
		return fail("publishing", err)
	}
	if d.sync.Load() {
		// Persist the rename itself: without the directory fsync the file
		// can be durable while its name is not.
		if dir, err := os.Open(d.path); err == nil {
			dir.Sync()
			dir.Close()
		}
	}
	d.recordWrite(key, int64(size))
	return nil
}

// SetBudget caps the directory at budget bytes of sealed files. When a
// write pushes the total over the cap, least-recently-used files are
// unlinked until it fits again (Evictions counts them). Zero or negative
// disables the cap. Pinned keys (Pin) are never evicted. Both stores on a
// Dir are caches, so eviction is always safe: an evicted file is a future
// miss, nothing more.
//
// The accounting assumes this process is the directory's only writer
// while a budget is active. Readers in other processes are unaffected
// beyond extra misses.
func (d *Dir) SetBudget(budget int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget = budget
	if budget <= 0 {
		d.sizes, d.lastUse, d.total = nil, nil, 0
		return
	}
	if d.sizes == nil {
		d.scanLocked()
	}
	d.enforceLocked("")
}

// Pin marks key as non-evictable until a matching Unpin; pins are
// counted, so concurrent holders of the same key nest.
func (d *Dir) Pin(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins == nil {
		d.pins = make(map[string]int)
	}
	d.pins[key]++
}

// Unpin releases one Pin on key.
func (d *Dir) Unpin(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins == nil {
		return
	}
	if d.pins[key]--; d.pins[key] <= 0 {
		delete(d.pins, key)
	}
}

// DiskUsage reports the tracked file bytes while a budget is active (0
// otherwise).
func (d *Dir) DiskUsage() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// touch bumps key's recency; a no-op unless a budget is active.
func (d *Dir) touch(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sizes[key]; ok {
		d.useSeq++
		d.lastUse[key] = d.useSeq
	}
}

// recordWrite folds a freshly published file into the budget accounting
// and evicts over-budget files (never the one just written).
func (d *Dir) recordWrite(key string, size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.budget <= 0 || d.sizes == nil {
		return
	}
	d.total += size - d.sizes[key]
	d.sizes[key] = size
	d.useSeq++
	d.lastUse[key] = d.useSeq
	d.enforceLocked(key)
}

// scanLocked seeds the accounting from the directory: sizes from a walk,
// recency from file mtimes (older file = colder key).
func (d *Dir) scanLocked() {
	d.sizes = make(map[string]int64)
	d.lastUse = make(map[string]int64)
	d.total = 0
	keys, _ := d.keys()
	var found []string
	mtime := make(map[string]int64, len(keys))
	for _, key := range keys {
		info, err := os.Stat(d.file(key))
		if err != nil {
			continue
		}
		d.sizes[key] = info.Size()
		d.total += info.Size()
		mtime[key] = info.ModTime().UnixNano()
		found = append(found, key)
	}
	sort.Slice(found, func(a, b int) bool { return mtime[found[a]] < mtime[found[b]] })
	for _, key := range found {
		d.useSeq++
		d.lastUse[key] = d.useSeq
	}
}

// enforceLocked unlinks least-recently-used, unpinned files until the
// total fits the budget. keep (the just-written key) is exempt even when
// unpinned, so a fresh file always survives long enough to be read back.
func (d *Dir) enforceLocked(keep string) {
	if d.budget <= 0 || d.total <= d.budget {
		return
	}
	var cands []string
	for key := range d.lastUse {
		if key != keep && d.pins[key] == 0 {
			cands = append(cands, key)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return d.lastUse[cands[a]] < d.lastUse[cands[b]] })
	for _, key := range cands {
		if d.total <= d.budget {
			return
		}
		if err := os.Remove(d.file(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		d.total -= d.sizes[key]
		delete(d.sizes, key)
		delete(d.lastUse, key)
		d.evictions.Add(1)
	}
}
