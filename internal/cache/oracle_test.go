package cache

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"lowvcc/internal/rng"
)

// The cache layer has one access path. These test-only oracles recompute
// its answers from the flat per-entry state the per-set summaries mirror —
// valid, disabled, tags, validFrom and the lru ticks — so every fuzz step
// can hold the summary-driven answer to a reference scan.

// refLookup is Lookup's reference: the lowest enabled way holding addr's
// tag that is readable at cycle.
func refLookup(c *Cache, cycle int64, addr uint64) (int, bool) {
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		e := c.entry(set, w)
		if c.valid[e] && !c.disabled[e] && c.tags[e] == tag && cycle >= c.validFrom[e] {
			return w, true
		}
	}
	return 0, false
}

// refPeek is Peek's reference: any enabled way holding addr's tag.
func refPeek(c *Cache, addr uint64) bool {
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		e := c.entry(set, w)
		if c.valid[e] && !c.disabled[e] && c.tags[e] == tag {
			return true
		}
	}
	return false
}

// refVictim is Victim's reference: the lowest invalid enabled way, else
// the enabled way with the smallest lru tick (lowest way on ties).
func refVictim(c *Cache, addr uint64) (int, bool) {
	set := c.SetOf(addr)
	best, bestTick := -1, uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		e := c.entry(set, w)
		if c.disabled[e] {
			continue
		}
		if !c.valid[e] {
			return w, true
		}
		if best < 0 || c.lru[e] < bestTick {
			best, bestTick = w, c.lru[e]
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// probeLookup calls Lookup and rolls back its side effects (counters and
// the LRU touch), so a fuzz can check the answer without perturbing the
// access stream under test.
func probeLookup(c *Cache, cycle int64, addr uint64) (int, bool) {
	set := c.SetOf(addr)
	base := set * c.cfg.Ways
	stats, tick := c.stats, c.lruTick
	lru := append([]uint64(nil), c.lru[base:base+c.cfg.Ways]...)
	var ord uint32
	if c.lruPacked {
		ord = c.lruOrder[set]
	}
	w, hit := c.Lookup(cycle, addr)
	c.stats, c.lruTick = stats, tick
	copy(c.lru[base:], lru)
	if c.lruPacked {
		c.lruOrder[set] = ord
	}
	return w, hit
}

// checkSet asserts set's summaries mirror the flat state: the valid and
// disabled masks, the tag folds, and the packed LRU order (ways ranked by
// lru tick, never-touched ways by index).
func checkSet(t *testing.T, tag string, c *Cache, set int) {
	t.Helper()
	base := set * c.cfg.Ways
	var valid, disabled uint64
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] {
			valid |= 1 << uint(w)
		}
		if c.disabled[base+w] {
			disabled |= 1 << uint(w)
		}
		if c.tagSum != nil {
			if got, want := c.tagSum[set]>>uint(8*w)&0xFF, tagFold(c.tags[base+w]); got != want {
				t.Fatalf("%s: %s set %d way %d: tag fold %#x, tag says %#x", tag, c.cfg.Name, set, w, got, want)
			}
		}
	}
	if c.validMask[set] != valid || c.disabledMask[set] != disabled {
		t.Fatalf("%s: %s set %d: masks valid %#x disabled %#x, flat state says %#x / %#x",
			tag, c.cfg.Name, set, c.validMask[set], c.disabledMask[set], valid, disabled)
	}
	if c.lruPacked {
		ways := make([]int, c.cfg.Ways)
		for w := range ways {
			ways[w] = w
		}
		sort.SliceStable(ways, func(i, j int) bool { return c.lru[base+ways[i]] < c.lru[base+ways[j]] })
		ord := c.lruOrder[set]
		for rank, w := range ways {
			if got := int(ord >> uint(4*rank) & 0xF); got != w {
				t.Fatalf("%s: %s set %d: packed LRU rank %d is way %d, ticks say way %d", tag, c.cfg.Name, set, rank, got, w)
			}
		}
	}
}

// checkAddr holds c's answers for addr to the references: Lookup at cycle
// and a few cycles on (pending fills turn readable), Peek and Victim, plus
// the summaries of addr's set.
func checkAddr(t *testing.T, tag string, c *Cache, cycle int64, addr uint64) {
	t.Helper()
	checkSet(t, tag, c, c.SetOf(addr))
	for _, at := range []int64{cycle, cycle + 4, cycle + 300} {
		gw, gh := probeLookup(c, at, addr)
		ww, wh := refLookup(c, at, addr)
		if gw != ww || gh != wh {
			t.Fatalf("%s: %s Lookup(%d, %#x) = (%d,%v), reference scan says (%d,%v)", tag, c.cfg.Name, at, addr, gw, gh, ww, wh)
		}
	}
	if got, want := c.Peek(addr), refPeek(c, addr); got != want {
		t.Fatalf("%s: %s Peek(%#x) = %v, reference scan says %v", tag, c.cfg.Name, addr, got, want)
	}
	gw, gok := c.Victim(addr)
	ww, wok := refVictim(c, addr)
	if gw != ww || gok != wok {
		t.Fatalf("%s: %s Victim(%#x) = (%d,%v), tick scan says (%d,%v)", tag, c.cfg.Name, addr, gw, gok, ww, wok)
	}
}

// checkAllSets runs checkSet and the Victim reference over every set of c.
func checkAllSets(t *testing.T, tag string, c *Cache) {
	t.Helper()
	for set := 0; set < c.cfg.Sets; set++ {
		checkSet(t, tag, c, set)
		addr := uint64(set) << c.lineShift
		gw, gok := c.Victim(addr)
		ww, wok := refVictim(c, addr)
		if gw != ww || gok != wok {
			t.Fatalf("%s: %s set %d: Victim = (%d,%v), tick scan says (%d,%v)", tag, c.cfg.Name, set, gw, gok, ww, wok)
		}
	}
}

// hierarchyCaches lists the five cache blocks.
func hierarchyCaches(h *Hierarchy) []*Cache {
	return []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB}
}

// accessMix shapes a hierarchy fuzz stream: gen draws an access's data
// address and fetch PC, kind picks Load ('L'), CommitStore ('S') or
// FetchInst ('F'), and each access advances the clock by r % advance.
type accessMix struct {
	gen     func(src *rng.Source, r uint64) (addr, pc uint64)
	kind    func(r uint64) byte
	advance uint64
}

// hierarchyFuzz drives one hierarchy through steps accesses and checks,
// after every access, the answers of the blocks it touched against the
// reference scans (every set of every block each 64 accesses). It returns
// a digest of every access result and every final counter.
func hierarchyFuzz(t *testing.T, name string, h *Hierarchy, src *rng.Source, steps int, cycle int64, mix accessMix) string {
	t.Helper()
	d := fnv.New64a()
	for i := 0; i < steps; i++ {
		r := src.Uint64()
		addr, pc := mix.gen(src, r)
		switch mix.kind(r) {
		case 'L':
			fmt.Fprintf(d, "L%+v", h.Load(cycle, addr))
		case 'S':
			fmt.Fprintf(d, "S%+v", h.CommitStore(cycle, addr, r))
		default:
			fmt.Fprintf(d, "F%+v", h.FetchInst(cycle, pc))
		}
		cycle += int64(r % mix.advance)
		tag := fmt.Sprintf("%s op %d", name, i)
		for _, p := range []struct {
			c *Cache
			a uint64
		}{{h.DL0, addr}, {h.UL1, addr}, {h.DTLB, addr}, {h.IL0, pc}, {h.UL1, pc}, {h.ITLB, pc}} {
			checkAddr(t, tag, p.c, cycle, p.a)
		}
		if i%64 == 0 {
			for _, c := range hierarchyCaches(h) {
				checkAllSets(t, tag, c)
			}
		}
	}
	fmt.Fprintf(d, "H%+v T%+v", h.Stats(), h.STab.Stats())
	for _, c := range hierarchyCaches(h) {
		fmt.Fprintf(d, " %s%+v%+v", c.cfg.Name, c.Stats(), c.Data().Stats())
	}
	for _, b := range []*Buffer{h.FB, h.WCB} {
		fmt.Fprintf(d, " %s%d/%d/%d", b.name, b.Allocs, b.FullStallCycles, b.FillStallCycles)
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// hierarchyDigests pin each fuzz stream's access results and final
// counters. They were recorded from a build that also carried a
// summary-free reference path and TLB/signature memos; both its paths
// produced these digests, so they hold the single path to the reference's
// answers end to end, not only per block.
var hierarchyDigests = []string{"6b5e075c70e7695a", "df74d950f628a408", "743ab00e0122aa15", "f582444cbbe093ce"}

// faultyBitsDigest pins TestHierarchyFastSlowEquivalenceFaultyBits the
// same way.
const faultyBitsDigest = "f61d9d964d864519"

// TestHierarchyFastSlowEquivalence drives access streams through one
// hierarchy per timing mode and holds, after every access, the touched
// blocks' Lookup/Peek/Victim answers and set summaries to the reference
// scans; the digest of every access result and counter must match the
// recorded one. The stream is tuned to exercise exactly the states the
// cached set state summarizes: store bursts followed by same-set loads
// (STable replays, full and set-only matches), unsafe IRAW windows
// (scrambled bitcells, so the corrupt-set repair accounting engages),
// tight same-set conflict traffic (victim selection from the packed LRU
// order), and page churn (TLB walk fills).
func TestHierarchyFastSlowEquivalence(t *testing.T) {
	modes := []TimingMode{
		{Interrupted: false, N: 0, Avoid: false, MemCycles: 40}, // baseline
		{Interrupted: true, N: 1, Avoid: true, MemCycles: 60},   // safe IRAW
		{Interrupted: true, N: 3, Avoid: true, MemCycles: 90},   // deep windows
		{Interrupted: true, N: 2, Avoid: false, MemCycles: 60},  // unsafe: scrambles
	}
	for mi, mode := range modes {
		h := MustNewHierarchy(DefaultHierarchyConfig())
		h.SetMode(mode)
		// setStride maps two addresses to the same DL0 set.
		setStride := uint64(h.DL0.Config().LineBytes * h.DL0.Config().Sets)
		got := hierarchyFuzz(t, fmt.Sprintf("mode %d", mi), h, rng.New(0xFA57+uint64(mi)), 6000, 100, accessMix{
			gen: func(src *rng.Source, r uint64) (addr, pc uint64) {
				// Cluster data within few sets and pages so same-set
				// replays, conflict evictions and STable matches are
				// frequent; the occasional far page forces walks and TLB
				// victim churn.
				base := uint64(0x10000000) + r%8*64 + r%3*setStride
				if r%41 == 0 {
					base = uint64(0x40000000) + r%512*4096
				}
				return base &^ 7, uint64(0x00400000) + r%5*4096 + (src.Uint64()%2048)&^3
			},
			kind:    func(r uint64) byte { return "LLLSSSFF"[r%8] },
			advance: 3, // adjacent cycles keep stabilization windows hot
		})
		if got != hierarchyDigests[mi] {
			t.Errorf("mode %d: digest %s, recorded %s", mi, got, hierarchyDigests[mi])
		}
		if mode.Avoid && h.Stats().IntegrityErrors != 0 {
			t.Fatalf("mode %d: integrity errors under avoidance: %+v", mi, h.Stats())
		}
	}
}

// TestHierarchyFastSlowEquivalenceFaultyBits repeats the oracle fuzz with
// Faulty-Bits fault maps installed: disabled ways exercise the
// disabledMask summaries in Lookup and Victim (including fully disabled
// sets, which bypass caching) while STable replays run on top.
func TestHierarchyFastSlowEquivalenceFaultyBits(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.SetMode(TimingMode{Interrupted: true, N: 2, Avoid: true, MemCycles: 60})
	fsrc := rng.New(0xFAB)
	for _, c := range hierarchyCaches(h) {
		// A high failure probability makes fully disabled sets likely.
		c.DisableFaultyLines(fsrc.Fork(), 0.4)
	}
	setStride := uint64(h.DL0.Config().LineBytes * h.DL0.Config().Sets)
	got := hierarchyFuzz(t, "faulty", h, rng.New(0xB17F), 6000, 50, accessMix{
		gen: func(src *rng.Source, r uint64) (addr, pc uint64) {
			return (uint64(0x20000000) + r%16*64 + r%4*setStride) &^ 7,
				uint64(0x00800000) + r%3*4096 + (src.Uint64()%1024)&^3
		},
		kind:    func(r uint64) byte { return "LLLSSFF"[r%7] },
		advance: 4,
	})
	if got != faultyBitsDigest {
		t.Errorf("digest %s, recorded %s", got, faultyBitsDigest)
	}
}

// TestVictimMatchesTickScan holds one cache's Victim, Lookup, Peek and
// Fill choices to the reference scans over randomized fills, hits,
// invalidations and disabled ways, at a packed-LRU geometry and at one
// past the packed limit (the tick-scan branch), and checks the counters
// against an independent tally.
func TestVictimMatchesTickScan(t *testing.T) {
	for _, ways := range []int{6, 12} {
		c := MustNew(Config{Name: "V", Sets: 4, Ways: ways, LineBytes: 64})
		c.DisableFaultyLines(rng.New(7), 0.15)
		var want Stats
		want.DisabledLines = c.Stats().DisabledLines

		src := rng.New(0x1CC)
		cycle := int64(10)
		for i := 0; i < 20000; i++ {
			addr := uint64(src.Intn(16*ways)) * 64 // 4*ways lines per set
			tag := fmt.Sprintf("ways %d op %d", ways, i)
			switch src.Intn(8) {
			case 0:
				checkAddr(t, tag, c, cycle, addr)
			case 1, 2:
				ww, wok := refVictim(c, addr)
				e := c.entry(c.SetOf(addr), ww)
				wasValid, wasDirty := wok && c.valid[e], wok && c.dirty[e]
				_, dirty, evicted, ok := c.Fill(cycle, addr, 0xABC)
				if ok != wok || evicted != wasValid || dirty != wasDirty {
					t.Fatalf("%s: Fill(%#x) = (dirty %v, evicted %v, ok %v), reference victim way %d says (%v, %v, %v)",
						tag, addr, dirty, evicted, ok, ww, wasDirty, wasValid, wok)
				}
				if ok {
					want.Fills++
					if evicted {
						want.Evictions++
						if dirty {
							want.DirtyEvicts++
						}
					}
					if !c.valid[e] || c.tags[e] != c.tagOf(addr) {
						t.Fatalf("%s: Fill(%#x) did not install at the reference victim way %d", tag, addr, ww)
					}
				}
			case 3:
				if w, hit := refLookup(c, cycle, addr); hit {
					c.MarkDirty(c.SetOf(addr), w)
				}
			case 4:
				c.Invalidate(addr)
			default:
				ww, wh := refLookup(c, cycle, addr)
				gw, gh := c.Lookup(cycle, addr)
				if gw != ww || gh != wh {
					t.Fatalf("%s: Lookup(%#x) = (%d,%v), reference scan says (%d,%v)", tag, addr, gw, gh, ww, wh)
				}
				want.Accesses++
				if wh {
					want.Hits++
				} else {
					want.Misses++
				}
			}
			checkSet(t, tag, c, c.SetOf(addr))
			cycle += int64(src.Intn(3))
		}
		if got := c.Stats(); got != want {
			t.Fatalf("ways %d: stats %+v, tally says %+v", ways, got, want)
		}
	}
}

// inflightRef is the reference for the generational MSHR records: one
// unbounded map that never drops a generation, pruning an expired record
// only when a probe finds it, as InFlightReady documents.
type inflightRef map[uint64]int64

func (m inflightRef) ready(line uint64, now int64) (int64, bool) {
	r, ok := m[line]
	if ok && r < now {
		delete(m, line)
		return 0, false
	}
	return r, ok
}

// TestInFlightMatchesUnboundedMap holds the generational MSHR records to
// the unbounded map under the hierarchy's usage: a miss probes the line
// and registers a completion only when no fill is outstanding, and probe
// times trail the newest completion stamp by less than the horizon.
// Many horizons elapse, so generations rotate and drop throughout.
func TestInFlightMatchesUnboundedMap(t *testing.T) {
	c := MustNew(Config{Name: "M", Sets: 16, Ways: 4, LineBytes: 64})
	ref := inflightRef{}
	src := rng.New(0x35F)
	now := int64(0)
	for i := 0; i < 200000; i++ {
		now += int64(src.Intn(8))
		line := uint64(src.Intn(256)) * 64
		at := now - int64(src.Intn(300)) // skewed-back access time
		gr, gok := c.InFlightReady(line, at)
		wr, wok := ref.ready(line, at)
		if gr != wr || gok != wok {
			t.Fatalf("op %d: InFlightReady(%#x, %d) = (%d,%v), unbounded map says (%d,%v)", i, line, at, gr, gok, wr, wok)
		}
		if !gok && src.Intn(2) == 0 {
			ready := at + 1 + int64(src.Intn(400))
			c.MarkInFlight(line, ready)
			ref[line] = ready
		}
	}
	if live := len(c.inflight) + len(c.inflightOld); live > 256 {
		t.Fatalf("%d live records for 256 lines", live)
	}
}
