package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAdmitRoundTrip: GetRaw on one journal produces sealed bytes that
// Admit on a second journal (the daemon side of result push-down)
// verifies and publishes bit-identically.
func TestAdmitRoundTrip(t *testing.T) {
	worker, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("trace-hash", "cfg-hash", "win=0")
	if err := worker.Put(&Entry{Key: key, Windows: 2, Result: res}); err != nil {
		t.Fatal(err)
	}
	raw, ok := worker.GetRaw(key)
	if !ok {
		t.Fatal("GetRaw missed a just-written entry")
	}
	ent, err := daemon.Admit(key, raw)
	if err != nil {
		t.Fatalf("Admit rejected valid upload: %v", err)
	}
	if ent.Windows != 2 || ent.Result == nil {
		t.Fatalf("Admit returned wrong entry: %+v", ent)
	}
	got, ok := daemon.Get(key)
	if !ok {
		t.Fatal("admitted entry not readable")
	}
	if got.Result.Time != res.Time || got.Result.TraceName != res.TraceName {
		t.Errorf("admitted entry differs: got %+v want %+v", got.Result, res)
	}
	// The file on disk must be byte-identical to the uploaded bytes.
	onDisk, err := os.ReadFile(daemon.files.file(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(raw) {
		t.Error("admitted file differs from uploaded bytes")
	}
}

// TestAdmitRejectsCorrupt: Admit runs the full integrity check before any
// byte lands — flipped payloads, truncations, key mismatches and garbage
// are all rejected with nothing written.
func TestAdmitRejectsCorrupt(t *testing.T) {
	worker, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("adm-trace", "adm-cfg")
	if err := worker.Put(&Entry{Key: key, Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	raw, _ := worker.GetRaw(key)
	// Non-canonical headers carry a payload that passes every check but
	// the byte-exact header comparison: the same magic, checksum and
	// length, spelled differently.
	header, payload, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(header)
	respell := func(h string) []byte { return []byte(h + "\n" + payload) }

	cases := []struct {
		name string
		key  string
		data []byte
	}{
		{"flipped byte", key, append(append([]byte{}, raw[:len(raw)-3]...), raw[len(raw)-3]^0x40, raw[len(raw)-2], raw[len(raw)-1])},
		{"truncated", key, raw[:len(raw)/2]},
		{"wrong key", Key("other-trace", "adm-cfg"), raw},
		{"garbage", key, []byte("not a journal entry at all")},
		{"empty", key, nil},
		{"trailing header field", key, respell(header + " junk")},
		{"extra spaces and signed length", key, respell(f[0] + "   " + f[1] + " +" + f[2])},
		{"zero-padded length", key, respell(f[0] + " " + f[1] + " 00" + f[2])},
		{"upper-case checksum", key, respell(f[0] + " " + strings.ToUpper(f[1]) + " " + f[2])},
		{"CRLF header", key, respell(header + "\r")},
		{"foreign magic", key, respell("lowvccckpt2 " + f[1] + " " + f[2])},
	}
	for _, tc := range cases {
		daemon, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := daemon.Admit(tc.key, tc.data); err == nil {
			t.Errorf("%s: Admit accepted corrupt upload", tc.name)
		}
		if n, _ := daemon.Len(); n != 0 {
			t.Errorf("%s: corrupt upload landed on disk (%d entries)", tc.name, n)
		}
		if s := daemon.Stats(); s.Rejected != 1 {
			t.Errorf("%s: Rejected = %d, want 1", tc.name, s.Rejected)
		}
	}
}

// budgetJournal writes n entries of roughly equal size and returns the
// journal plus the per-entry size.
func budgetJournal(t *testing.T, n int) (*Journal, []string, int64) {
	t.Helper()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key("budget-trace", fmt.Sprintf("cfg-%d", i))
		if err := j.Put(&Entry{Key: keys[i], Windows: 1, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(j.files.file(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	return j, keys, info.Size()
}

// TestBudgetEvictsLRU: entries past the byte budget are evicted in
// least-recently-used order; a Get refreshes recency.
func TestBudgetEvictsLRU(t *testing.T) {
	j, keys, size := budgetJournal(t, 3)
	// Activate tracking with a roomy budget, refresh keys[0] so keys[1]
	// becomes the LRU victim, then cap at 2 entries.
	j.SetBudget(100 * size)
	if _, ok := j.Get(keys[0]); !ok {
		t.Fatal("warm get missed")
	}
	j.SetBudget(2*size + size/2)
	if s := j.Stats(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if _, ok := j.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := j.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := j.Get(keys[2]); !ok {
		t.Error("most recently written entry was evicted")
	}
	if u := j.files.DiskUsage(); u > 2*size+size/2 {
		t.Errorf("DiskUsage %d over budget", u)
	}
	// Further writes keep enforcing: adding a fourth entry evicts again,
	// and the freshly written key always survives.
	res := sampleResult(t)
	k4 := Key("budget-trace", "cfg-extra")
	if err := j.Put(&Entry{Key: k4, Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(k4); !ok {
		t.Error("just-written entry was evicted")
	}
	if s := j.Stats(); s.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", s.Evictions)
	}
}

// TestBudgetPinBlocksEviction: a pinned key (an in-flight lease's cell)
// survives any squeeze; Unpin makes it evictable again.
func TestBudgetPinBlocksEviction(t *testing.T) {
	j, keys, size := budgetJournal(t, 3)
	j.Pin(keys[0])
	j.SetBudget(size + size/2) // room for one entry
	if _, ok := j.Get(keys[0]); !ok {
		t.Fatal("pinned entry was evicted")
	}
	if _, ok := j.Get(keys[1]); ok {
		t.Error("unpinned LRU entry survived a one-entry budget")
	}
	j.Unpin(keys[0])
	res := sampleResult(t)
	k := Key("budget-trace", "cfg-pin-extra")
	if err := j.Put(&Entry{Key: k, Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(keys[0]); ok {
		t.Error("unpinned entry survived the next enforcement")
	}
}

// TestBudgetSeedsFromDisk: SetBudget on a journal reopened over an
// existing directory accounts for the entries already on disk.
func TestBudgetSeedsFromDisk(t *testing.T) {
	j, keys, size := budgetJournal(t, 4)
	reopened, err := Open(j.files.path)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(2 * size)
	n, err := reopened.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n > 2 {
		t.Errorf("reopened journal holds %d entries over a 2-entry budget", n)
	}
	alive := 0
	for _, k := range keys {
		if _, ok := reopened.Get(k); ok {
			alive++
		}
	}
	if alive != n {
		t.Errorf("%d entries readable, %d on disk", alive, n)
	}
}

// TestLockPidReuse: a LOCK file whose pid is alive but whose recorded
// start time names a different process incarnation is stale — a recycled
// pid must not wedge a fresh daemon.
func TestLockPidReuse(t *testing.T) {
	if procStartTime(os.Getpid()) == "" {
		t.Skip("no /proc start time on this platform")
	}
	dir := t.TempDir()
	// Our own pid is certainly alive; stamp it with an impossible start
	// time to simulate the pid having been recycled since the lock was
	// written.
	lockPath := filepath.Join(dir, lockName)
	content := fmt.Sprintf("%d somehost 1\n", os.Getpid())
	if err := os.WriteFile(lockPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, warning, err := AcquireLock(dir)
	if err != nil {
		t.Fatalf("AcquireLock failed against recycled-pid lock: %v", err)
	}
	defer l.Release()
	if warning == "" {
		t.Error("reclaim of a recycled-pid lock produced no warning")
	}
	// The refreshed lock must carry our real start time, and a second
	// acquire must now see a genuinely live owner.
	data, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	pid, start := parseLock(data)
	if pid != os.Getpid() || start != procStartTime(os.Getpid()) {
		t.Errorf("lock records (%d, %q), want (%d, %q)", pid, start, os.Getpid(), procStartTime(os.Getpid()))
	}
	if _, _, err := AcquireLock(dir); err == nil {
		t.Error("second acquire succeeded against a live owner")
	} else if !strings.Contains(err.Error(), "locked by running pid") {
		t.Errorf("unexpected error: %v", err)
	}
}
