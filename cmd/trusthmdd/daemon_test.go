package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// readmeFlagRow matches one row of README's flag tables:
// | `-name [arg]` | default | description |
var readmeFlagRow = regexp.MustCompile("(?m)^\\| `-([a-z-]+)[^`]*` \\| ([^|]*) \\|")

// TestFlagsMatchREADME keeps the command line and README's flag tables
// from drifting: every flag bindFlags declares has exactly one row, every
// row names a declared flag, and the documented default is the real one
// (sizes may be written 8MiB, durations 1m, an empty default as —).
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg daemonConfig
	fs := flag.NewFlagSet("trusthmdd", flag.ContinueOnError)
	bindFlags(fs, &cfg)

	documented := map[string]bool{}
	for _, row := range readmeFlagRow.FindAllStringSubmatch(string(readme), -1) {
		name, cell := row[1], strings.Trim(row[2], "` ")
		if documented[name] {
			t.Errorf("README documents -%s twice", name)
		}
		documented[name] = true
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("README documents -%s, which trusthmdd does not have", name)
			continue
		}
		if cell == "—" {
			cell = ""
		}
		if !sameDefault(f, cell) {
			t.Errorf("-%s: README says default %q, the flag's is %q", name, cell, f.DefValue)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("-%s has no row in README's flag tables", f.Name)
		}
	})
}

// sameDefault compares a README default cell with a flag's default under
// the flag's own type, so 5m equals 5m0s and 8MiB equals 8388608.
func sameDefault(f *flag.Flag, cell string) bool {
	g, ok := f.Value.(flag.Getter)
	if !ok {
		return cell == f.DefValue
	}
	switch g.Get().(type) {
	case time.Duration:
		got, err := time.ParseDuration(cell)
		want, _ := time.ParseDuration(f.DefValue)
		return err == nil && got == want
	case int, int64:
		unit := int64(1)
		for suffix, u := range map[string]int64{"KiB": 1 << 10, "MiB": 1 << 20} {
			if strings.HasSuffix(cell, suffix) {
				cell, unit = strings.TrimSuffix(cell, suffix), u
			}
		}
		got, err := strconv.ParseInt(cell, 10, 64)
		return err == nil && strconv.FormatInt(got*unit, 10) == f.DefValue
	}
	return cell == f.DefValue
}

// TestDaemonLifecycle pins close's order from the outside. Eight
// Fleet.Assess calls are queued behind a held flusher on a test-gated
// shard before close runs, so every one of them is assessed while close
// is already running: they only succeed if the fleet drains its queue
// before it reports closed, and their verdicts only reach the disk if the
// store is still open while the fleet drains. After close returns, fleet
// and store are closed, and closing again changes nothing.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	gobPath := filepath.Join(dir, "det.gob")
	saveDetector(t, gobPath, detector.WithModel(testgate.Model))
	splits, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}

	cfg := flagDefaults()
	cfg.loadPath = gobPath
	cfg.verdictDir = filepath.Join(dir, "verdicts")
	cfg.serve.CacheSize = -1
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(context.Background()); err != nil {
		t.Fatal(err)
	}

	const calls = 8
	release := testgate.Hold(t)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := d.fleet.Assess(context.Background(), serve.AssessSpec{Device: "edge-1", Features: splits.Test.At(i).Features})
			errs <- err
		}()
	}
	waitUntil(t, "every call to queue behind the held flusher", func() bool {
		var inflight int64
		for _, st := range d.fleet.Stats() {
			for _, r := range st.Replicas {
				inflight += r.Inflight
			}
		}
		return inflight == calls
	})
	closed := make(chan error, 1)
	go func() { closed <- d.close() }()
	// A probe naming no shard answers at once, whether or not the fleet is
	// closed, so it can watch for close without joining the queue.
	waitUntil(t, "close to reach the fleet", func() bool {
		_, err := d.fleet.Assess(context.Background(), serve.AssessSpec{Model: "no-such-shard", Features: splits.Test.At(0).Features})
		return errors.Is(err, serve.ErrClosed)
	})
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("a call queued before close lost its verdict: %v", err)
		}
	}

	if _, err := d.fleet.Assess(context.Background(), serve.AssessSpec{Features: splits.Test.At(0).Features}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("fleet after close: %v, want ErrClosed", err)
	}
	if _, err := d.store.Append(verdictstore.Record{}); !errors.Is(err, verdictstore.ErrClosed) {
		t.Fatalf("store after close: %v, want ErrClosed", err)
	}
	if err := d.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	reopened, err := verdictstore.Open(cfg.verdictDir, cfg.verdicts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Records; got != calls {
		t.Fatalf("store holds %d verdicts, want the %d the fleet drained: the store closed before the fleet did", got, calls)
	}
}

// waitUntil polls cond until it holds, failing the test after 30s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
