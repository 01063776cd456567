// Package journal persists completed sweep-cell results on disk so an
// interrupted sweep campaign can resume without re-simulating finished
// work. It is the durability half of the sim runner's resilience layer
// (sim.Runner.JournalDir) and the content-addressed result cache the
// ROADMAP's sweep-service item calls for.
//
// # Keying
//
// Entries are content-addressed: the caller derives a key from everything
// the cell's Result is a pure function of — the trace bytes, the full core
// configuration, the windowing parameters and the engine version
// (core.EngineVersion) — via Key. Two cells with the same key are
// guaranteed bit-identical by the engine's determinism contract, which is
// what makes replaying an entry indistinguishable from re-running the
// cell. Anything that changes simulated Results must change the key
// (bumping core.EngineVersion invalidates every prior entry at once).
//
// # Durability
//
// The journal is append-only at the granularity of whole entries: one
// immutable sealed file per key in a Dir, the sealed-file directory the
// checkpoint store (internal/ckpt) also sits on. A file is written to a
// temporary name first and renamed into place, so a crash — including
// kill -9 — can never leave a half-written entry under a final name.
// Defense in depth for torn writes that bypass the rename (a dying
// filesystem, fault injection): every file carries a header with the
// payload's SHA-256 and length, and Get verifies both before decoding. A
// truncated, corrupt or undecodable entry is treated as a miss (and
// counted), never as data — the cell simply re-runs.
//
// Entries encode as JSON. Go's encoder emits the shortest float64
// representation that round-trips exactly and core.Result is all exported
// scalar fields, so a decoded Result is bit-identical to the recorded one
// (asserted by TestEntryRoundTrip).
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"

	"lowvcc/internal/core"
)

// Entry is one journaled cell: the stitched Result plus the shard plan
// size it was produced under (PointUpdate.Windows on replay).
type Entry struct {
	Key     string
	Windows int
	Result  *core.Result
}

// Stats is a snapshot of the journal's access counters.
type Stats struct {
	Hits, Misses uint64
	// Corrupt counts entries rejected by the integrity check (truncated or
	// scrambled files); each also counted as a miss.
	Corrupt uint64
	// WriteErrors counts failed Puts. The journal is a cache: a failed
	// write costs a future re-simulation, never correctness.
	WriteErrors uint64
	// Rejected counts uploads refused by Admit (bad header, checksum or
	// key mismatch): a byzantine or buggy uploader never lands an entry.
	Rejected uint64
	// Evictions counts entries removed by the disk-budget policy
	// (SetBudget). An evicted entry is a future miss, nothing more.
	Evictions uint64
}

// Journal is a directory of immutable cell entries: a Dir of ".cell" files
// whose payload is the JSON Entry. Safe for concurrent use by multiple
// goroutines (and, thanks to atomic renames, by multiple processes sharing
// the directory).
type Journal struct {
	files *Dir

	hits, misses, corrupt, writeErrs, rejected atomic.Uint64
}

// Open creates the journal directory if needed and returns a handle.
func Open(dir string) (*Journal, error) {
	files, err := OpenDir(dir, ".cell", "lowvccjnl1")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{files: files}, nil
}

// SetSync selects fsync-on-Put (see Dir.SetSync). Off (the default) is
// crash-consistent, cheaper, and the right trade for the journal's cache
// role; the sweep daemon turns it on because a service's durability
// promise is stronger than a CLI's.
func (j *Journal) SetSync(on bool) { j.files.SetSync(on) }

// SetBudget caps the journal directory at budget bytes of entry files,
// evicting least-recently-used entries past the cap (see Dir.SetBudget).
// Pinned keys survive, so an in-flight lease's entry cannot vanish between
// a worker's write and the scheduler's read-back. The accounting assumes
// this process is the directory's only writer — exactly the sweep
// daemon's LOCK-guarded arrangement.
func (j *Journal) SetBudget(budget int64) { j.files.SetBudget(budget) }

// Pin marks key as non-evictable until a matching Unpin; pins nest.
func (j *Journal) Pin(key string) { j.files.Pin(key) }

// Unpin releases one Pin on key.
func (j *Journal) Unpin(key string) { j.files.Unpin(key) }

// Stats returns a snapshot of the access counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Hits:        j.hits.Load(),
		Misses:      j.misses.Load(),
		Corrupt:     j.corrupt.Load(),
		WriteErrors: j.writeErrs.Load(),
		Rejected:    j.rejected.Load(),
		Evictions:   j.files.Evictions(),
	}
}

// Key derives a content-address from its parts: each part is
// length-prefixed before hashing, so ("ab", "c") and ("a", "bc") never
// collide. The result is a hex SHA-256, safe as a file name.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Get returns the entry for key, or (nil, false) when it is absent or
// fails the integrity check. Corrupt entries count as misses: the caller
// re-runs the cell and Put overwrites the bad file.
func (j *Journal) Get(key string) (*Entry, bool) {
	e, _, ok := j.read(key)
	return e, ok
}

// GetRaw returns the sealed entry file bytes for key — header line plus
// payload, exactly as stored — after running the same integrity check as
// Get. This is the upload format for result push-down: a worker ships the
// sealed bytes to the daemon, which re-verifies them with Admit before
// admitting the entry into its own journal.
func (j *Journal) GetRaw(key string) ([]byte, bool) {
	_, data, ok := j.read(key)
	return data, ok
}

// read is the one read path behind Get and GetRaw.
func (j *Journal) read(key string) (*Entry, []byte, bool) {
	data, payload, err := j.files.Read(key)
	var e *Entry
	if err == nil {
		e, err = decodeEntry(key, payload)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			j.corrupt.Add(1)
		}
		j.misses.Add(1)
		return nil, nil, false
	}
	j.hits.Add(1)
	return e, data, true
}

// Admit verifies sealed entry bytes produced elsewhere (GetRaw on another
// journal, possibly another machine) and publishes them under key. The
// full check runs before a single byte lands: the header must be the
// canonical seal of the payload (magic, SHA-256, length), and the payload
// must decode to an entry for key with a non-nil Result. Bytes from a
// buggy or byzantine uploader are rejected with an error and counted in
// Stats.Rejected; nothing is written. This is the daemon half of result
// push-down — the scheduler believes the verified bytes, never the worker.
func (j *Journal) Admit(key string, data []byte) (*Entry, error) {
	payload, err := j.files.unseal(key, data)
	var e *Entry
	if err == nil {
		e, err = decodeEntry(key, payload)
	}
	if err != nil {
		j.rejected.Add(1)
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := j.files.publish(key, data); err != nil {
		j.writeErrs.Add(1)
		return nil, fmt.Errorf("journal: %w", err)
	}
	return e, nil
}

// decodeEntry decodes a verified payload and checks it is an entry for key.
func decodeEntry(key string, payload []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("entry %s stored under key %s", e.Key, key)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("%s: entry without result", key)
	}
	return &e, nil
}

// Put records the entry under its key (see Dir's atomic publish).
// Errors are counted and returned; callers may ignore them — a lost entry
// costs one re-simulation.
func (j *Journal) Put(e *Entry) error {
	payload, err := json.Marshal(e)
	if err == nil {
		err = j.files.Write(e.Key, payload)
	}
	if err != nil {
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: putting %s: %w", e.Key, err)
	}
	return nil
}

// PutTruncated writes the entry's file cut off after keep bytes, bypassing
// the atomic-rename protocol — a deterministic stand-in for a torn write
// (process killed mid-write on a filesystem that reordered the rename).
// Test and fault-injection use only: Get must reject the result.
func (j *Journal) PutTruncated(e *Entry, keep int) error {
	payload, err := json.Marshal(e)
	if err != nil {
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: putting %s: %w", e.Key, err)
	}
	data := append(j.files.header(payload), payload...)
	if keep < 0 || keep > len(data) {
		keep = len(data) / 2
	}
	if err := os.WriteFile(j.files.file(e.Key), data[:keep], 0o644); err != nil {
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Verify decodes every entry in the directory through the full integrity
// check (header, length, SHA-256, key match) and returns how many passed.
// The first failing entry aborts the walk with a descriptive error. The
// sweep daemon runs this after a drain to assert the journal it leaves
// behind is wholly consistent; it does not touch the access counters.
func (j *Journal) Verify() (int, error) {
	keys, err := j.files.keys()
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	for n, key := range keys {
		_, payload, err := j.files.Read(key)
		if err == nil {
			_, err = decodeEntry(key, payload)
		}
		if err != nil {
			return n, fmt.Errorf("journal: verifying %s: %w", key, err)
		}
	}
	return len(keys), nil
}

// Len reports how many well-named entries the journal directory holds
// (without verifying their integrity).
func (j *Journal) Len() (int, error) {
	keys, err := j.files.keys()
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return len(keys), nil
}
