package detector

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"trusthmd/internal/gen"
	"trusthmd/pkg/linalg"
)

// gobHistoryCases are the detectors TestSaveBytesIgnoreGobHistory saves:
// every built-in family, and a PCA pipeline, whose projection has a wire
// type of its own.
var gobHistoryCases = []struct {
	name string
	opts []Option
}{
	{"rf", []Option{WithModel("rf")}},
	{"lr", []Option{WithModel("lr")}},
	{"svm", []Option{WithModel("svm")}},
	{"nb", []Option{WithModel("nb")}},
	{"knn", []Option{WithModel("knn")}},
	{"rf-pca", []Option{WithModel("rf"), WithPCA(3)}},
}

// saveDigest trains a detector with opts on a small DVFS split and returns
// the SHA-256 of what Save writes.
func saveDigest(t *testing.T, opts []Option) string {
	t.Helper()
	s, err := gen.DVFSWithSizes(1, gen.Sizes{Train: 140, Test: 70, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s.Train, append(opts, WithEnsembleSize(5), WithSeed(3))...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSaveFresh prints one case's Save digest as "save NAME HEX". Run as
// `-test.run '^TestSaveFresh$/^NAME$'` in a process of its own, it gives the
// bytes a process that saves nothing else writes;
// TestSaveBytesIgnoreGobHistory re-executes the test binary that way.
func TestSaveFresh(t *testing.T) {
	for _, c := range gobHistoryCases {
		t.Run(c.name, func(t *testing.T) {
			fmt.Printf("save %s %s\n", c.name, saveDigest(t, c.opts))
		})
	}
}

// TestSaveBytesIgnoreGobHistory holds Save to writing the same bytes for
// one model whatever the process gob-encoded before. encoding/gob numbers
// types process-wide in the order they are first encoded, so the package
// init pins the numbering of every built-in type; without that pin, the
// unrelated encodes and shuffled save orders below move the digests away
// from those of a fresh process.
func TestSaveBytesIgnoreGobHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary once per case")
	}
	fresh := map[string]string{}
	for _, c := range gobHistoryCases {
		out, err := exec.Command(os.Args[0], "-test.run", "^TestSaveFresh$/^"+c.name+"$").CombinedOutput()
		if err != nil {
			t.Fatalf("fresh process for %s: %v\n%s", c.name, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "save" && f[1] == c.name {
				fresh[c.name] = f[2]
			}
		}
		if fresh[c.name] == "" {
			t.Fatalf("fresh process for %s printed no digest:\n%s", c.name, out)
		}
	}

	// Encode a type no Save writes, then a matrix on its own: its wire
	// form is one every Save writes too.
	var sink bytes.Buffer
	enc := gob.NewEncoder(&sink)
	if err := enc.Encode(struct{ Unrelated []string }{[]string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(linalg.New(2, 2)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(gobHistoryCases)) {
			c := gobHistoryCases[i]
			if got := saveDigest(t, c.opts); got != fresh[c.name] {
				t.Errorf("round %d: %s saves to %s here, %s in a fresh process", round, c.name, got, fresh[c.name])
			}
		}
	}
}
