package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"trusthmd/internal/exp"
)

// TestRun runs the cheapest experiment through the table and checks that an
// unknown ID fails with an error naming every valid one.
func TestRun(t *testing.T) {
	if err := run("T1", exp.Config{Seed: 1, Scale: 0.01}); err != nil {
		t.Fatalf("T1: %v", err)
	}
	err := run("F6", exp.Config{Seed: 1, Scale: 0.01})
	if err == nil {
		t.Fatal("unknown experiment F6 ran")
	}
	for _, e := range exp.Experiments {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error %q does not name experiment %s", err, e.ID)
		}
	}
}

// TestGoldenRenderings runs every entry of exp.Experiments at Scale 0.02,
// Seed 1, M 25, and H again at Scale 0.1 (the setting its numbers are
// usually checked at), and holds each rendering to
// testdata/golden/<ID>.txt byte for byte, with SIMD on and off alike. A
// change that means to move a paper number rewrites its golden file and
// says why in CHANGES.md; any other change leaves every one of them alone.
func TestGoldenRenderings(t *testing.T) {
	check := func(name string, e exp.Experiment, cfg exp.Config) {
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("testdata", "golden", name+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if diff := lineDiff(res.Render(), string(want)); diff != "" {
			t.Errorf("%s: rendering differs from %s (-want +got, by line):\n%s", name, path, diff)
		}
	}
	for _, e := range exp.Experiments {
		check(e.ID, e, exp.Config{Scale: 0.02, Seed: 1, M: 25})
		if e.ID == "H" {
			check("H@0.1", e, exp.Config{Scale: 0.1, Seed: 1, M: 25})
		}
	}
}

// lineDiff returns "" when got equals want, and otherwise the lines between
// their common first and last lines: "-N: line" for line N of want, then
// "+N: line" for line N of got.
func lineDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	pre := 0
	for pre < len(g) && pre < len(w) && g[pre] == w[pre] {
		pre++
	}
	suf := 0
	for suf < len(g)-pre && suf < len(w)-pre && g[len(g)-1-suf] == w[len(w)-1-suf] {
		suf++
	}
	var b strings.Builder
	for i := pre; i < len(w)-suf; i++ {
		fmt.Fprintf(&b, "-%d: %s\n", i+1, w[i])
	}
	for i := pre; i < len(g)-suf; i++ {
		fmt.Fprintf(&b, "+%d: %s\n", i+1, g[i])
	}
	return b.String()
}

// stdout runs f with os.Stdout redirected and returns what it printed.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	out := <-read
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestTSNECSV runs F8 the way `hmdbench -exp F8 -tsne-csv dir` does. Each
// embedding's rendering is followed by one line naming its CSV dump, and
// with those two lines taken out the output is F8's golden rendering.
func TestTSNECSV(t *testing.T) {
	dir := t.TempDir()
	tsneDir = dir
	defer func() { tsneDir = "" }()
	out := stdout(t, func() error { return run("F8", exp.Config{Scale: 0.02, Seed: 1, M: 25}) })

	lines := strings.Split(out, "\n")
	var kept []string
	wrote := map[int]string{}
	for i, l := range lines {
		if strings.HasPrefix(l, "wrote ") {
			wrote[i] = l
			continue
		}
		kept = append(kept, l)
	}
	for _, w := range []struct {
		line    int
		dataset string
		points  int
		groups  map[string]int
	}{
		{9, "dvfs", 180, map[string]int{"train": 140, "unknown": 40}},
		{19, "hpc", 650, map[string]int{"train": 500, "unknown": 150}},
	} {
		path := filepath.Join(dir, "fig8_"+w.dataset+".csv")
		want := "wrote " + path + " (" + strconv.Itoa(w.points) + " points)"
		if wrote[w.line] != want {
			t.Errorf("output line %d = %q, want %q", w.line+1, wrote[w.line], want)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		if rows[0] != "x,y,label,group,app" {
			t.Errorf("%s header %q", path, rows[0])
		}
		groups := map[string]int{}
		for _, row := range rows[1:] {
			f := strings.Split(row, ",")
			if len(f) != 5 {
				t.Fatalf("%s row %q: %d fields", path, row, len(f))
			}
			groups[f[3]]++
		}
		if len(rows)-1 != w.points || groups["train"] != w.groups["train"] || groups["unknown"] != w.groups["unknown"] {
			t.Errorf("%s: %d points %v, want %d %v", path, len(rows)-1, groups, w.points, w.groups)
		}
	}
	if len(wrote) != 2 {
		t.Errorf("%d wrote lines, want 2: %q", len(wrote), wrote)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "F8.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(kept, "\n"); got != string(golden)+"\n" {
		t.Errorf("F8 output without the wrote lines:\n%s\nwant the golden rendering and a newline:\n%s", got, golden)
	}
}
