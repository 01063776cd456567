package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lowvcc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/all_8000.csv")

// TestAllGolden pins every table and plot of `figures -fig all -csv
// -insts 8000 -seeds 1` byte for byte: the paper's numbers live in a
// committed file, so any change that moves one of them fails here.
// Regenerate with -update ONLY for an intentional model change.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole evaluation")
	}
	var buf bytes.Buffer
	g := &gen{w: &buf, csv: true,
		spec:        sim.SuiteSpec{InstsPerTrace: 8000, SeedsPerProfile: 1},
		breakdownMV: 575, runner: sim.Default()}
	if err := g.run("all"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all_8000.csv")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("figures -fig all output drifted from %s (%d bytes, want %d); diff it against a -update run", path, buf.Len(), len(want))
	}
}

// TestHeadlineGolden pins Figures 11(b) and 12 at the paper's operating
// point — the default suite (60k instructions, 2 seeds per class) — byte
// for byte, so the headline numbers are held where the paper quotes them
// and not only at the reduced size of TestAllGolden. Both figures run on
// the default Runner behind the generators, so Figure 12 replays Figure
// 11(b)'s cells from its memo. The files were
// recorded with `figures -fig 11b -csv` and `figures -fig 12 -csv`; they
// are never regenerated by a test flag.
func TestHeadlineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the default suite")
	}
	var buf bytes.Buffer
	g := &gen{w: &buf, csv: true,
		spec:        sim.SuiteSpec{InstsPerTrace: 60000, SeedsPerProfile: 2},
		breakdownMV: 575, runner: sim.Default()}
	for _, fig := range []string{"11b", "12"} {
		buf.Reset()
		if err := g.run(fig); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "fig"+fig+"_default.csv")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("figures -fig %s output drifted from %s:\n%s\nwant:\n%s", fig, path, buf.Bytes(), want)
		}
	}
}
