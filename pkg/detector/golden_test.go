package detector

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"trusthmd/internal/gen"
	"trusthmd/pkg/model"
)

// TestGoldenModelHashes pins the bytes Detector.Save writes for the two
// training sets the repo benchmark boots from (benchmark/stack.go: full
// Table-I DVFS and quarter Table-I HPC, data seed 1, train seed 1, rf
// defaults). They were computed at the commit before the presorted-column
// tree builder (PR 19) and are the "same model" proof for any change to
// the training path, at the artefact the daemon loads; `trusthmd -seed 1
// -save` writes the DVFS one. A change that is meant to alter the trained
// model updates these with the reason; one that is not must leave them.
func TestGoldenModelHashes(t *testing.T) {
	quarter := gen.Sizes{Train: gen.TableIHPC.Train / 4, Test: gen.TableIHPC.Test / 4, Unknown: gen.TableIHPC.Unknown / 4}
	cases := []struct {
		name   string
		splits func() (gen.Splits, error)
		want   string
	}{
		{"dvfs", func() (gen.Splits, error) { return gen.DVFS(1) },
			"dea34497f6f3e07c7602075d7f8293aa89477ac0667c3d10cb0a1f47496585b6"},
		{"hpc-quarter", func() (gen.Splits, error) { return gen.HPCWithSizes(1, quarter) },
			"4dd1e4313d57b606beb67b79e24f3a222491e1dfe1e41d709ed4fdf5428535d6"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.splits()
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(s.Train, WithModel("rf"), WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("Save wrote %d bytes hashing to %s, pinned %s: the trained model changed", buf.Len(), got, c.want)
			}
		})
	}
}

// TestGoldenModelHashesPerMember pins, next to TestGoldenModelHashes' blob
// hashes, one digest per member of the same two models
// (testdata/golden_members.json, computed with the copy-per-member trainer
// the blob hashes date from), so a change that moves a blob hash names the
// members that moved.
func TestGoldenModelHashesPerMember(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_members.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string][]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	quarter := gen.Sizes{Train: gen.TableIHPC.Train / 4, Test: gen.TableIHPC.Test / 4, Unknown: gen.TableIHPC.Unknown / 4}
	for name, splits := range map[string]func() (gen.Splits, error){
		"dvfs":        func() (gen.Splits, error) { return gen.DVFS(1) },
		"hpc-quarter": func() (gen.Splits, error) { return gen.HPCWithSizes(1, quarter) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := splits()
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(s.Train, WithModel("rf"), WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			members := d.pipe.Ensemble().Estimators()
			if want := pinned[name]; len(members) != len(want) {
				t.Fatalf("%d members, %d pinned", len(members), len(want))
			}
			var moved []int
			for m, c := range members {
				if memberDigest(t, c) != pinned[name][m] {
					moved = append(moved, m)
				}
			}
			if len(moved) > 0 {
				t.Fatalf("members %v of %d trained to other bytes than pinned", moved, len(members))
			}
		})
	}
}

// memberDigest is the SHA-256 of a tree member's gob, read back into the
// fields of its wire form and printed. A gob stream numbers its types in
// the order the process first encoded them, so the raw bytes of one member
// depend on what the process encoded before; the fields do not.
func memberDigest(t *testing.T, c model.Classifier) string {
	t.Helper()
	data, err := c.(gob.GobEncoder).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Cfg struct {
			MaxDepth, MinLeaf, MaxFeatures, Criterion int
			Seed                                      int64
		}
		NFeatures, NClasses, NodeTally int
		Nodes                          []struct {
			Feature     int
			Threshold   float64
			Left, Right int
			Counts      []int
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", wire)))
	return hex.EncodeToString(sum[:])
}
