// Package ckpt is the warm-state checkpoint store: it captures the
// functional warm state of a core at fixed trace boundaries and restores it
// later in O(state size), so a sample window's start no longer costs a
// replay of its whole warm prefix. It is the SMARTS/SimPoint-style
// checkpointing half of the sharded-sweep methodology, built on the
// core-layer warm primitives (core.CaptureWarm / RestoreWarm /
// WarmReplayRange — see the core package's "Warm-state checkpoints"
// section for the contract).
//
// # Keying and sharing
//
// A snapshot is a pure function of (trace, warm-relevant configuration,
// boundary, engine version) — and of nothing else. In particular it is
// independent of Vcc, clock plan and IRAW mode, so one snapshot per
// (trace, boundary) serves every operating point of a sweep: the sweep's
// hundreds of (vcc, mode) cells share each boundary's snapshot read-only.
// WarmConfigKey hashes exactly the warm-relevant configuration — the
// hierarchy and predictor geometry plus the fault-map identity (whether
// maps install, and from which seed and sigma) — so irrelevant knobs can
// never split the share and relevant ones can never alias.
//
// # Storage
//
// Snapshots live in an in-process map (decoded, shared by pointer) and,
// when a directory is configured, on disk as one sealed file per snapshot
// key: a journal.Dir of ".ckpt" files whose payload is the snapshot's
// EncodeSnapshot bytes, read back through DecodeSnapshot. Every file
// carries the journal's integrity header (magic, payload SHA-256, length)
// and is published by atomic rename; a corrupt or truncated file is a
// counted miss, never data — the warm prefix simply replays live, and the
// rebuilt snapshot overwrites the bad file. Sweep workers sharing a
// journal directory (in-process pools and sweepd -worker processes alike)
// share the store through the filesystem the same way they share the
// result journal.
//
// Directories written by older releases (magic "lowvccckpt1": a ".ckpt"
// index per key naming separately stored component blob files) heal the
// same way: each old index fails the header check, counts as corrupt, is
// removed and is rebuilt on the next WarmTo. The old component blob files
// are left where they are; they are neither counted against a budget nor
// deleted.
//
// # The store is a cache
//
// Nothing is ever allowed to fail a simulation because of checkpointing: a
// failed write costs a future re-replay, a failed read replays live, and a
// restore that rejects its snapshot (fault-map mismatch, shape drift) falls
// back to replay. The byte budget (SetBudget) evicts whole snapshot files
// least-recently-used first; every snapshot restores on its own, so an
// eviction costs replay work, never a result. The reference path —
// checkpoints off, every prefix replayed live — is selectable everywhere
// and bit-identical (fuzzed).
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"sync"
	"sync/atomic"

	"lowvcc/internal/cache"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/predictor"
	"lowvcc/internal/trace"
)

// Stats is a snapshot of the store's access counters.
type Stats struct {
	// Hits and Misses count snapshot lookups (memory or disk).
	Hits, Misses uint64
	// Corrupt counts snapshots rejected by the integrity check or by a
	// failed restore; each is also a miss.
	Corrupt uint64
	// Restores counts windows whose warm prefix was satisfied (fully or
	// partially) from a snapshot; Replays counts windows warmed by live
	// replay alone. Their ratio is the checkpoint hit rate.
	Restores, Replays uint64
	// Captures counts snapshots built and stored.
	Captures uint64
	// WriteErrors counts failed disk writes and failed captures. The store
	// is a cache: these cost future re-replays, never correctness.
	WriteErrors uint64
	// Evictions counts snapshots removed from disk by the byte-budget
	// policy (SetBudget). Every snapshot is independently restorable, so
	// an evicted one degrades to a live replay, never an error.
	Evictions uint64
}

// Store holds warm-state snapshots, in memory and optionally on disk. Safe
// for concurrent use by multiple goroutines and — thanks to atomic renames
// and content addressing — by multiple processes sharing the directory. A
// nil *Store is valid and means "checkpoints off": every operation is a
// no-op and WarmTo replays live.
type Store struct {
	disk *journal.Dir // nil: memory-only

	mu    sync.Mutex
	snaps map[string]*core.WarmState

	hits, misses, corrupt, restores, replays, captures, writeErrs atomic.Uint64
}

// Open returns a store backed by dir; dir "" means memory-only.
func Open(dir string) (*Store, error) {
	s := &Store{snaps: make(map[string]*core.WarmState)}
	if dir != "" {
		disk, err := journal.OpenDir(dir, ".ckpt", "lowvccckpt2")
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		s.disk = disk
	}
	return s, nil
}

// Stats returns a snapshot of the access counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Restores:    s.restores.Load(),
		Replays:     s.replays.Load(),
		Captures:    s.captures.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
	if s.disk != nil {
		st.Evictions = s.disk.Evictions()
	}
	return st
}

// SnapshotKey derives the content address of the snapshot at an instruction
// boundary of a trace: the trace identity, the warm-relevant configuration
// (WarmConfigKey) and the engine version pin everything the snapshot is a
// function of.
func SnapshotKey(traceHash, warmCfgKey string, boundary int) string {
	return journal.Key("warm-ckpt", traceHash, warmCfgKey, strconv.Itoa(boundary), core.EngineVersion)
}

// warmCfg is the warm-relevant slice of a core configuration. Vcc, clock
// and mode knobs are deliberately absent: warm state is independent of them
// (the access-order contract), and including them would needlessly split
// the snapshot share across a sweep's operating points. The fault map is
// the one mode-adjacent input that does shape warm evolution (disabled
// lines change victim selection), so its identity — installed or not, and
// from which seed and sigma — is part of the key; the map itself is
// reinstalled deterministically by the core's reset, never serialized.
type warmCfg struct {
	Hierarchy cache.HierarchyConfig
	Predictor predictor.Config
	FaultMap  bool
	Seed      uint64
	Sigma     float64
}

// WarmConfigKey hashes the warm-relevant part of cfg.
func WarmConfigKey(cfg core.Config) string {
	w := warmCfg{Hierarchy: cfg.Hierarchy, Predictor: cfg.Predictor}
	if core.InstallsFaultMaps(cfg) {
		w.FaultMap = true
		w.Seed = cfg.Seed
		w.Sigma = cfg.FaultySigma
	}
	js, err := json.Marshal(&w)
	if err != nil {
		// Config structs are plain scalars; Marshal cannot fail on them.
		panic(fmt.Sprintf("ckpt: encoding warm config: %v", err))
	}
	return journal.Key("warm-cfg", string(js))
}

// Get returns the snapshot for key, or (nil, false) when absent or failing
// the integrity check. The returned snapshot is shared: callers must treat
// it as read-only (core.RestoreWarm does).
func (s *Store) Get(key string) (*core.WarmState, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	ws, ok := s.snaps[key]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return ws, true
	}
	if s.disk == nil {
		s.misses.Add(1)
		return nil, false
	}
	_, payload, err := s.disk.Read(key)
	if err == nil {
		ws, err = DecodeSnapshot(payload)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Corrupt, not absent: remove the file so has() stops
			// reporting a snapshot here and the next WarmTo re-publishes it.
			s.corrupt.Add(1)
			s.disk.Remove(key)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	// A concurrent loader may have won; keep the first pointer so every
	// core in the process shares one decoded copy.
	if prior, ok := s.snaps[key]; ok {
		ws = prior
	} else {
		s.snaps[key] = ws
	}
	s.mu.Unlock()
	s.hits.Add(1)
	return ws, true
}

// Put stores the snapshot under key; the caller must not mutate it
// afterwards. Disk errors are counted and swallowed: the in-memory copy is
// already serving this process, and other processes re-replay.
func (s *Store) Put(key string, ws *core.WarmState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	_, dup := s.snaps[key]
	if !dup {
		s.snaps[key] = ws
	}
	s.mu.Unlock()
	s.captures.Add(1)
	if s.disk == nil || dup {
		return
	}
	if err := s.disk.Write(key, EncodeSnapshot(ws)); err != nil {
		s.writeErrs.Add(1)
	}
}

// has reports whether a snapshot exists (in memory or as a file) without
// decoding it.
func (s *Store) has(key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	_, ok := s.snaps[key]
	s.mu.Unlock()
	return ok || s.disk != nil && s.disk.Has(key)
}

// drop forgets a snapshot that failed to restore, so the next probe
// rebuilds it instead of re-hitting the bad copy.
func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.snaps, key)
	s.mu.Unlock()
	if s.disk != nil {
		s.disk.Remove(key)
	}
}

// WarmTo brings a freshly reset core to warm boundary n of tr: it restores
// the deepest usable snapshot at a multiple of interval, replays the
// residual tail through the functional warm path, and captures any
// boundary snapshots still missing along the way. The resulting core state
// is observationally identical to a live WarmReplay(tr, n) — checkpointing
// only moves work, never results. A nil store (or non-positive interval)
// degrades to exactly that live replay.
//
// traceHash and warmCfgKey identify the snapshot family (see SnapshotKey);
// interval is the boundary spacing in instructions — the sim runner passes
// its window size, so full-history warm prefixes land exactly on
// boundaries and steady-state windows restore without any replay.
func (s *Store) WarmTo(c *core.Core, traceHash, warmCfgKey string, interval int, tr *trace.Trace, n int) error {
	if s == nil || interval <= 0 {
		return c.WarmReplay(tr, n)
	}
	pos := 0
	for b := n / interval * interval; b >= interval; b -= interval {
		key := SnapshotKey(traceHash, warmCfgKey, b)
		ws, ok := s.Get(key)
		if !ok {
			continue
		}
		if err := c.RestoreWarm(ws); err != nil {
			// Keyed identically yet unusable: a scrambled or stale copy.
			// Forget it and probe shallower; the replay below rebuilds it.
			s.drop(key)
			s.corrupt.Add(1)
			continue
		}
		pos = b
		break
	}
	if pos > 0 {
		s.restores.Add(1)
	} else if n > 0 {
		s.replays.Add(1)
	}
	for pos < n {
		next := (pos/interval + 1) * interval
		if next > n {
			next = n
		}
		if err := c.WarmReplayRange(tr, pos, next); err != nil {
			return err
		}
		pos = next
		if pos%interval == 0 {
			key := SnapshotKey(traceHash, warmCfgKey, pos)
			if !s.has(key) {
				ws, err := c.CaptureWarm()
				if err != nil {
					// Capture refused (timed residue?) — checkpointing is
					// best-effort, the warm state itself is fine: keep
					// replaying live.
					s.writeErrs.Add(1)
					continue
				}
				s.Put(key, ws)
			}
		}
	}
	return nil
}

// SetBudget caps the store's directory at budget bytes of snapshot files;
// past the cap whole snapshots evict least-recently-used first (see
// journal.Dir.SetBudget). Zero or negative disables the cap. A nil or
// memory-only store ignores the call.
func (s *Store) SetBudget(budget int64) {
	if s != nil && s.disk != nil {
		s.disk.SetBudget(budget)
	}
}

// DiskUsage reports the tracked snapshot-file bytes while a budget is
// active (0 otherwise).
func (s *Store) DiskUsage() int64 {
	if s == nil || s.disk == nil {
		return 0
	}
	return s.disk.DiskUsage()
}
