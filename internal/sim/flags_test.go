package sim

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/workload"
)

// parseRunner binds every runner flag into a fresh Runner and parses args.
func parseRunner(t *testing.T, args ...string) *Runner {
	t.Helper()
	r := &Runner{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r.RegisterFlags(fs, "test")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return r
}

// TestRegisterFlags: every flag lands in its Runner field as it parses,
// with no post-parse step, and the defaults are the CLI defaults.
func TestRegisterFlags(t *testing.T) {
	def := parseRunner(t)
	if def.Workers != 0 || def.Width != 0 || def.WindowInsts != 0 || def.WarmInsts != 0 ||
		def.PointTimeout != 0 || def.Progress != nil || def.JournalDir != "" ||
		def.JournalBudget != 0 || def.CkptBudget != 0 || def.Retries != 0 ||
		def.RetryBackoff != time.Second || def.AllowPartial || def.DisableCheckpoints || def.CkptDir != "" {
		t.Fatalf("defaults: %+v", def)
	}

	r := parseRunner(t, "-workers", "3", "-width", "4", "-window", "1000", "-warm", "400",
		"-ckpt", "/ck", "-timeout", "2s", "-progress", "-journal", "/jn",
		"-journal-budget", "123", "-ckpt-budget", "456", "-retries", "2",
		"-retry-backoff", "50ms", "-allow-partial")
	if r.Workers != 3 || r.Width != 4 || r.WindowInsts != 1000 || r.WarmInsts != 400 ||
		r.CkptDir != "/ck" || r.DisableCheckpoints || r.PointTimeout != 2*time.Second ||
		r.Progress == nil || r.JournalDir != "/jn" || r.JournalBudget != 123 ||
		r.CkptBudget != 456 || r.Retries != 2 || r.RetryBackoff != 50*time.Millisecond ||
		!r.AllowPartial {
		t.Fatalf("parsed: %+v", r)
	}

	if r := parseRunner(t, "-progress=false"); r.Progress != nil {
		t.Error("-progress=false installed a printer")
	}
}

// TestRegisterFlagsCheckpointSpec: -ckpt resolves off, auto and a
// directory, and a later occurrence overrides an earlier one.
func TestRegisterFlagsCheckpointSpec(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		disable bool
		dir     string
	}{
		{nil, false, ""},
		{[]string{"-ckpt", "off"}, true, ""},
		{[]string{"-ckpt", "auto"}, false, ""},
		{[]string{"-ckpt", ""}, false, ""},
		{[]string{"-ckpt", "/tmp/ck"}, false, "/tmp/ck"},
		{[]string{"-ckpt", "/tmp/ck", "-ckpt", "auto"}, false, ""},
		{[]string{"-ckpt", "off", "-ckpt", "/tmp/ck"}, false, "/tmp/ck"},
	} {
		r := parseRunner(t, tc.args...)
		if r.DisableCheckpoints != tc.disable || r.CkptDir != tc.dir {
			t.Errorf("%q: DisableCheckpoints=%v CkptDir=%q, want %v %q",
				tc.args, r.DisableCheckpoints, r.CkptDir, tc.disable, tc.dir)
		}
	}
}

// TestRegisterFlagsSubset: with names given only those flags are bound.
func TestRegisterFlagsSubset(t *testing.T) {
	r := &Runner{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r.RegisterFlags(fs, "test", "workers", "window")
	if fs.Lookup("workers") == nil || fs.Lookup("window") == nil {
		t.Fatal("named flags not bound")
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 2 {
		t.Errorf("bound %d flags, want 2", n)
	}
	if err := fs.Parse([]string{"-workers", "5", "-window", "-1"}); err != nil {
		t.Fatal(err)
	}
	if r.Workers != 5 || r.WindowInsts != -1 {
		t.Errorf("subset parse: %+v", r)
	}
}

// TestRegisterFlagsKeyAgreement: a runner configured from the CLI flags
// and the SweepSpec carrying the same windowing and width — what the CLIs
// submit with -server — compute equal cell keys, so a local journal and a
// daemon's journal address every cell identically.
func TestRegisterFlagsKeyAgreement(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 3000, 7)
	for _, args := range [][]string{
		nil,
		{"-window", "1000"},
		{"-window", "1000", "-warm", "400", "-width", "4"},
		{"-window", "-1", "-width", "1", "-workers", "2", "-ckpt", "off"},
	} {
		r := parseRunner(t, args...)
		spec := SweepSpec{InstsPerTrace: 3000, SeedsPerProfile: 1, Modes: []string{"iraw"},
			WindowInsts: r.WindowInsts, WarmInsts: r.WarmInsts, Width: r.Width}
		for _, m := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} {
			local, err := r.CellKey(r.pointConfig(500, m), tr)
			if err != nil {
				t.Fatal(err)
			}
			// The daemon keys cells through the spec's config builder; a
			// runner rebuilt from the spec keys its own sweep grid.
			sr := spec.NewRunner()
			remote, err := sr.CellKey(spec.PointConfig(500, m), tr)
			if err != nil {
				t.Fatal(err)
			}
			grid, err := sr.CellKey(sr.pointConfig(500, m), tr)
			if err != nil {
				t.Fatal(err)
			}
			if local != remote || local != grid {
				t.Errorf("%q %v: flag runner key %s, spec key %s, spec runner grid key %s",
					args, m, local, remote, grid)
			}
		}
	}
}

// TestProgressPrinterFormat pins the -progress line format — one line per
// completed or failed cell, none for the terminal update — which scripts
// parse to time a run's cells.
func TestProgressPrinterFormat(t *testing.T) {
	var buf bytes.Buffer
	p := progressPrinter(&buf, "tool")
	p(PointUpdate{Point: 0, Label: "sweep 500mV iraw", TraceName: "specint-1", Windows: 1, Done: 1, Total: 3})
	p(PointUpdate{Point: 1, Label: "sweep 400mV iraw", TraceName: "specint-1", Windows: 8, Replayed: true, Done: 2, Total: 3})
	p(PointUpdate{Point: 2, Label: "sweep 450mV iraw", TraceName: "specint-1", Err: errors.New("boom"), Done: 3, Total: 3})
	p(PointUpdate{Point: -1, Err: errors.New("terminal")})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []*regexp.Regexp{
		regexp.MustCompile(`^tool: \[ *\d+\.\d\ds\]   1/3 sweep 500mV iraw specint-1 \(1 window\(s\)\)$`),
		regexp.MustCompile(`^tool: \[ *\d+\.\d\ds\]   2/3 sweep 400mV iraw specint-1 \(8 window\(s\)\) \[replayed\]$`),
		regexp.MustCompile(`^tool: \[ *\d+\.\d\ds\]   3/3 sweep 450mV iraw specint-1 FAILED: boom$`),
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, re := range want {
		if !re.MatchString(lines[i]) {
			t.Errorf("line %d = %q, want match %s", i, lines[i], re)
		}
	}
}
