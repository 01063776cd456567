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
