package detector

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"trusthmd/internal/gen"
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
