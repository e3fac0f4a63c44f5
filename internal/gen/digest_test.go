package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"trusthmd/internal/dvfs"
	"trusthmd/pkg/dataset"
)

// digest hashes the three splits in order: each split's length, then per
// sample every feature's IEEE-754 bits, the label and the application name.
func digest(s Splits) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range []*dataset.Dataset{s.Train, s.Test, s.Unknown} {
		word(uint64(d.Len()))
		for i := 0; i < d.Len(); i++ {
			smp := d.At(i)
			for _, f := range smp.Features {
				word(math.Float64bits(f))
			}
			word(uint64(smp.Label))
			h.Write([]byte(smp.App))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedDigests pins every sample the generators produce for the
// datasets the repo trades on: the full Table-I DVFS set the daemon demo
// and the benchmark boot from, the quarter Table-I HPC set of the
// offline-score workload, the EM set of experiment E1 and the
// conservative-governor DVFS set experiment E2 builds (seed 1 + 3). Any
// change to the generators, the simulators or feature extraction that is
// not meant to change the data must leave these digests as they are.
func TestGeneratedDigests(t *testing.T) {
	quarter := Sizes{Train: TableIHPC.Train / 4, Test: TableIHPC.Test / 4, Unknown: TableIHPC.Unknown / 4}
	conservative := dvfs.DefaultConfig()
	conservative.Policy = dvfs.Conservative
	cases := []struct {
		name   string
		splits func() (Splits, error)
		want   string
	}{
		{"dvfs", func() (Splits, error) { return DVFS(1) },
			"81f17667ceee1e7e0945d06a9fa924dd7fd18a55d8ac3fe7617083ed1ce87944"},
		{"hpc-quarter", func() (Splits, error) { return HPCWithSizes(1, quarter) },
			"4fb6ef503945949ca779b98e8e61eaa3564734a172a7fd9b9f0a545020f2ab46"},
		{"em", func() (Splits, error) { return EMWithSizes(1, EMSizes) },
			"d66e0c32c5019d79ef0d8e157c0fcda87d21c1aa95686618f5beaf5e9182e119"},
		{"dvfs-conservative", func() (Splits, error) { return DVFSWithConfig(4, TableIDVFS, conservative) },
			"bbfc2ee24dbd1bc2c3e9302e115c39bd5083fa2122d823d7d747485fa4892555"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.splits()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(s); got != c.want {
				t.Fatalf("splits hash to %s, pinned %s: the generated data changed", got, c.want)
			}
		})
	}
}
