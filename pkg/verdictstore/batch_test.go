package verdictstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// servedRecords builds n records shaped like the serving tap's: a device,
// a shard, an entropy, a two-way vote split, a latency, and the feature
// vector on every seventh (a rejection). Times are injected when base is
// non-zero, left for the store to stamp otherwise.
func servedRecords(n int, base time.Time) []Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, n)
	for i := range recs {
		p := rng.Float64()
		rec := Record{
			Device:        fmt.Sprintf("edge-%d", i%5),
			Model:         "dvfs-rf",
			Version:       3,
			Source:        "batch",
			Prediction:    i % 2,
			Decision:      "benign",
			Entropy:       -p*math.Log(p) - (1-p)*math.Log(1-p),
			Votes:         []float64{p, 1 - p},
			LatencyMicros: 412,
		}
		if i%7 == 3 {
			rec.Decision = "reject"
			rec.Features = make([]float64, 17)
			for j := range rec.Features {
				rec.Features[j] = rng.NormFloat64()
			}
		}
		if !base.IsZero() {
			rec.Time = base.Add(time.Duration(i) * time.Millisecond)
		}
		recs[i] = rec
	}
	return recs
}

func mustOpen(t testing.TB, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// segmentFiles reads every segment of dir, keyed by file name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

func mustQueryAll(t *testing.T, s *Store) []Record {
	t.Helper()
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return recs
}

// TestAppendBatchEqualsAppends: a group appended through AppendBatch is, on
// disk and to every reader, the same as its records appended one by one.
func TestAppendBatchEqualsAppends(t *testing.T) {
	base := time.Date(2026, 10, 3, 9, 0, 0, 123456789, time.UTC)

	t.Run("segment files byte-identical", func(t *testing.T) {
		// The second size rotates every few frames, so the rotation decisions
		// made mid-group have to match the one-by-one ones too.
		for _, segBytes := range []int64{0, 700} {
			cfg := Config{SegmentBytes: segBytes, MaxSegments: 1 << 20}
			one, group := t.TempDir(), t.TempDir()
			a := mustOpen(t, one, cfg)
			for _, rec := range servedRecords(64, base) {
				mustAppend(t, a, rec)
			}
			b := mustOpen(t, group, cfg)
			recs := servedRecords(64, base)
			if n, err := b.AppendBatch(recs); n != 64 || err != nil {
				t.Fatalf("AppendBatch = %d, %v", n, err)
			}
			for i, rec := range recs {
				if rec.Seq != uint64(i+1) {
					t.Fatalf("record %d stamped seq %d", i, rec.Seq)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			want, got := segmentFiles(t, one), segmentFiles(t, group)
			if len(want) != len(got) || (segBytes > 0 && len(want) < 4) {
				t.Fatalf("SegmentBytes %d: %d segments one by one, %d as a group", segBytes, len(want), len(got))
			}
			for name, data := range want {
				if !bytes.Equal(data, got[name]) {
					t.Fatalf("SegmentBytes %d: segment %s differs between 64 Appends and one AppendBatch", segBytes, name)
				}
			}
		}
	})

	t.Run("mixed with Append and reopened", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Config{})
		all := servedRecords(100, base)
		for _, rec := range all[:20] {
			mustAppend(t, s, rec)
		}
		if n, err := s.AppendBatch(all[20:84]); n != 64 || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		for _, rec := range all[84:] {
			mustAppend(t, s, rec)
		}
		check := func(s *Store) {
			t.Helper()
			got := mustQueryAll(t, s)
			if len(got) != len(all) {
				t.Fatalf("%d records, want %d", len(got), len(all))
			}
			for i, rec := range got {
				want := all[i]
				want.Seq = uint64(i + 1)
				wantJSON, _ := encodeJSON(want)
				gotJSON, _ := encodeJSON(rec)
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Fatalf("record %d read back as %s, want %s", i, gotJSON, wantJSON)
				}
			}
		}
		check(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, Config{})
		defer s.Close()
		if st := s.Stats(); st.Recovered != 100 || st.TruncatedBytes != 0 || st.NextSeq != 101 {
			t.Fatalf("reopen: %+v", st)
		}
		check(s)
	})

	t.Run("rotation mid-group", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{SegmentBytes: 512, MaxSegments: 1 << 20, SyncInterval: time.Hour}
		s := mustOpen(t, dir, cfg)
		freezeFlusher(t, s) // so each group is committed whole, by the Stats below
		for g := 0; g < 3; g++ {
			if n, err := s.AppendBatch(servedRecords(64, time.Time{})); n != 64 || err != nil {
				t.Fatalf("group %d: AppendBatch = %d, %v", g, n, err)
			}
			if st := s.Stats(); st.Records != int64(64*(g+1)) {
				t.Fatalf("group %d: %+v", g, st)
			}
		}
		st := s.Stats()
		if st.Segments < 10 {
			t.Fatalf("only %d segments; the groups did not straddle rotations", st.Segments)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, cfg)
		defer s.Close()
		if st2 := s.Stats(); st2.Records != st.Records || st2.Bytes != st.Bytes || st2.Segments != st.Segments {
			t.Fatalf("reopen recovered %+v, the writer had counted %+v", st2, st)
		}
		for i, rec := range mustQueryAll(t, s) {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("position %d holds seq %d: a record was lost or duplicated", i, rec.Seq)
			}
		}
	})

	t.Run("bad record skipped", func(t *testing.T) {
		s := mustOpen(t, t.TempDir(), Config{})
		defer s.Close()
		recs := servedRecords(9, base)
		recs[4].Entropy = math.NaN()
		n, err := s.AppendBatch(recs)
		if n != 8 || err == nil {
			t.Fatalf("AppendBatch = %d, %v; want 8 and the encoder's error", n, err)
		}
		if recs[4].Seq != 0 {
			t.Fatalf("skipped record stamped seq %d", recs[4].Seq)
		}
		got := mustQueryAll(t, s)
		if len(got) != 8 {
			t.Fatalf("%d records stored, want 8", len(got))
		}
		for i, rec := range got {
			src := i
			if i >= 4 {
				src = i + 1
			}
			if rec.Seq != uint64(i+1) || recs[src].Seq != rec.Seq || !rec.Time.Equal(recs[src].Time) {
				t.Fatalf("stored record %d: seq %d time %v, source record seq %d time %v", i, rec.Seq, rec.Time, recs[src].Seq, recs[src].Time)
			}
		}
		if st := s.Stats(); st.Appended != 8 || st.NextSeq != 9 {
			t.Fatalf("stats %+v", st)
		}
		// A group of nothing but bad records stores nothing and wakes nobody.
		if n, err := s.AppendBatch([]Record{{Entropy: math.Inf(1)}}); n != 0 || err == nil {
			t.Fatalf("all-bad group: %d, %v", n, err)
		}
		if n, err := s.AppendBatch(nil); n != 0 || err != nil {
			t.Fatalf("empty group: %d, %v", n, err)
		}
	})

	t.Run("one clock reading per group", func(t *testing.T) {
		s := mustOpen(t, t.TempDir(), Config{})
		defer s.Close()
		recs := servedRecords(8, time.Time{})
		recs[5].Time = base
		before := time.Now()
		if n, err := s.AppendBatch(recs); n != 8 || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		for i, rec := range recs {
			switch {
			case i == 5 && !rec.Time.Equal(base):
				t.Fatalf("injected time overwritten: %v", rec.Time)
			case i != 5 && (!rec.Time.Equal(recs[0].Time) || rec.Time.Before(before)):
				t.Fatalf("record %d stamped %v, record 0 %v", i, rec.Time, recs[0].Time)
			}
		}
	})

	t.Run("concurrent with Append", func(t *testing.T) {
		s := mustOpen(t, t.TempDir(), Config{SegmentBytes: 8 << 10, MaxSegments: 1 << 20})
		defer s.Close()
		const workers, rounds = 3, 40
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					recs := servedRecords(16, time.Time{})
					if n, err := s.AppendBatch(recs); n != 16 || err != nil {
						t.Errorf("AppendBatch = %d, %v", n, err)
						return
					}
					for j := 1; j < len(recs); j++ {
						if recs[j].Seq != recs[0].Seq+uint64(j) {
							t.Errorf("group not contiguous: seq %d at offset %d of the group starting %d", recs[j].Seq, j, recs[0].Seq)
							return
						}
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := s.Append(Record{Model: "m", Decision: "benign", Source: "assess"}); err != nil {
						t.Errorf("Append: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		got := mustQueryAll(t, s)
		if len(got) != workers*rounds*17 {
			t.Fatalf("%d records, want %d", len(got), workers*rounds*17)
		}
		for i, rec := range got {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("position %d holds seq %d", i, rec.Seq)
			}
		}
	})

	t.Run("synchronous mode", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Config{SyncEvery: 100})
		defer s.Close()
		if n, err := s.AppendBatch(servedRecords(64, base)); n != 64 || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		if s.sinceSync != 64 {
			t.Fatalf("sinceSync = %d after a group of 64", s.sinceSync)
		}
		if n, err := s.AppendBatch(servedRecords(64, base)); n != 64 || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		if s.sinceSync != 0 || s.dirty {
			t.Fatalf("128 records at SyncEvery 100 left sinceSync %d, dirty %v", s.sinceSync, s.dirty)
		}
		// Written before AppendBatch returned: a copy taken now, with no
		// Sync and no Close, holds both groups.
		crashed := mustOpen(t, copySegments(t, dir), Config{})
		defer crashed.Close()
		if st := crashed.Stats(); st.Recovered != 128 || st.TruncatedBytes != 0 {
			t.Fatalf("crash copy: %+v", st)
		}
	})

	t.Run("refused whole", func(t *testing.T) {
		s := mustOpen(t, t.TempDir(), Config{SyncInterval: time.Hour})
		freezeFlusher(t, s)
		parked := errors.New("disk on fire")
		s.mu.Lock()
		s.werr = parked
		s.mu.Unlock()
		recs := servedRecords(4, time.Time{})
		if n, err := s.AppendBatch(recs); n != 0 || err != parked {
			t.Fatalf("with a parked commit error: %d, %v", n, err)
		}
		if recs[0].Seq != 0 || !recs[0].Time.IsZero() {
			t.Fatalf("refused group was stamped: %+v", recs[0])
		}
		if n, err := s.AppendBatch(recs); n != 4 || err != nil {
			t.Fatalf("the error must be surfaced once: %d, %v", n, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := s.AppendBatch(recs); n != 0 || err != ErrClosed {
			t.Fatalf("closed store: %d, %v", n, err)
		}
	})
}

// TestFailedWriteIsNotAccounted: a group whose write fails is dropped, and
// the segment's record count and size must not keep describing it. The
// active file is closed under the store, so the group's write(2) fails.
func TestFailedWriteIsNotAccounted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SyncInterval: time.Hour})
	freezeFlusher(t, s)
	base := time.Date(2026, 10, 3, 9, 0, 0, 0, time.UTC)
	if n, err := s.AppendBatch(servedRecords(10, base)); n != 10 || err != nil {
		t.Fatalf("AppendBatch = %d, %v", n, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	landed := s.Stats()

	s.mu.Lock()
	s.f.Close()
	s.mu.Unlock()
	lost := servedRecords(64, base.Add(time.Hour))
	if n, err := s.AppendBatch(lost); n != 64 || err != nil {
		t.Fatalf("AppendBatch into the pending group = %d, %v", n, err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync reported a write to a closed file as done")
	}
	s.mu.Lock()
	parked := s.werr
	s.mu.Unlock()
	if parked != nil {
		t.Fatalf("Sync returned the error and also parked it: %v", parked)
	}
	st := s.Stats()
	if st.Appended != 74 || st.NextSeq != 75 {
		t.Fatalf("the dropped group still consumed its sequence numbers: %+v", st)
	}

	reopened := mustOpen(t, copySegments(t, dir), Config{})
	defer reopened.Close()
	rst := reopened.Stats()
	if st.Records != rst.Records || st.Bytes != rst.Bytes || st.Records != landed.Records || st.Bytes != landed.Bytes {
		t.Fatalf("after the failed write the store counts %d records / %d bytes; on disk are %d / %d (before the failure: %d / %d)",
			st.Records, st.Bytes, rst.Records, rst.Bytes, landed.Records, landed.Bytes)
	}
	// The time bound must not have moved either, or a Since query would
	// open the segment for records that are not there.
	s.mu.Lock()
	maxTime := s.active().maxTime
	s.mu.Unlock()
	if want := base.Add(9 * time.Millisecond).UnixNano(); maxTime != want {
		t.Fatalf("segment maxTime %d, want %d", maxTime, want)
	}
	s.mu.Lock()
	s.f = nil // already closed; Close must not trip over it
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// fullDisk wraps the active segment file: its first Write after arming
// lands half the bytes and fails with ENOSPC, and with failTruncate the
// cleanup's Truncate fails as well.
type fullDisk struct {
	segmentFile
	armed, failTruncate bool
}

func (d *fullDisk) Write(p []byte) (int, error) {
	if !d.armed {
		return d.segmentFile.Write(p)
	}
	d.armed = false
	n, err := d.segmentFile.Write(p[:len(p)/2])
	if err == nil {
		err = syscall.ENOSPC
	}
	return n, err
}

func (d *fullDisk) Truncate(size int64) error {
	if d.failTruncate {
		return syscall.EIO
	}
	return d.segmentFile.Truncate(size)
}

// TestShortWriteKeepsSegmentReadable: a group write that lands in part
// must not leave a torn frame where Query or the next Open reads it as the
// end of the segment. The error surfaces once; afterwards Query returns the
// records committed before and after the fault, a reopen recovers the
// same, and the counts match the files. When the torn run cannot be cut
// off, the segment is sealed and its whole frames that landed count as
// committed, since Open recovers them.
func TestShortWriteKeepsSegmentReadable(t *testing.T) {
	for _, failTruncate := range []bool{false, true} {
		t.Run(fmt.Sprintf("failTruncate=%v", failTruncate), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Config{SyncInterval: time.Hour})
			freezeFlusher(t, s)
			base := time.Date(2026, 10, 3, 9, 0, 0, 0, time.UTC)
			before, torn, after := servedRecords(10, base), servedRecords(20, base.Add(time.Hour)), servedRecords(10, base.Add(2*time.Hour))
			if n, err := s.AppendBatch(before); n != len(before) || err != nil {
				t.Fatalf("AppendBatch = %d, %v", n, err)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			s.mu.Lock()
			s.f = &fullDisk{segmentFile: s.f, armed: true, failTruncate: failTruncate}
			s.mu.Unlock()
			if n, err := s.AppendBatch(torn); n != len(torn) || err != nil {
				t.Fatalf("AppendBatch into the pending group = %d, %v", n, err)
			}
			if err := s.Sync(); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("Sync after the short write = %v, want ENOSPC", err)
			}
			if n, err := s.AppendBatch(after); n != len(after) || err != nil {
				t.Fatalf("AppendBatch after the fault = %d, %v (the error must surface once)", n, err)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync after the fault: %v", err)
			}

			// The frames of torn that landed whole: none once the run is cut
			// off, those inside its first half otherwise.
			sizes, run := make([]int, len(torn)), 0
			for i := range torn {
				payload, err := appendRecord(nil, &torn[i])
				if err != nil {
					t.Fatal(err)
				}
				sizes[i] = frameHdr + len(payload)
				run += sizes[i]
			}
			landed, whole := 0, 0
			for failTruncate && whole+sizes[landed] <= run/2 {
				whole += sizes[landed]
				landed++
			}
			if failTruncate && (landed == 0 || whole == run/2) {
				t.Fatalf("half the run (%d of %d bytes) is %d whole frames: no torn frame to test", run/2, run, landed)
			}
			var want []uint64
			for _, recs := range [][]Record{before, torn[:landed], after} {
				for _, rec := range recs {
					want = append(want, rec.Seq)
				}
			}
			seqs := func(recs []Record) []uint64 {
				out := make([]uint64, len(recs))
				for i, rec := range recs {
					out[i] = rec.Seq
				}
				return out
			}
			if got := seqs(mustQueryAll(t, s)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Query after the fault returned seqs %v, want %v", got, want)
			}
			st := s.Stats()
			var onDisk int64
			for _, data := range segmentFiles(t, dir) {
				onDisk += int64(len(data))
			}
			torntail := int64(0)
			if failTruncate {
				torntail = int64(run/2 - whole) // the torn frame, in the sealed segment
			}
			if st.Records != int64(len(want)) || st.Bytes+torntail != onDisk {
				t.Fatalf("Stats: %d records / %d bytes; want %d records, and %d bytes on disk hold %d torn",
					st.Records, st.Bytes, len(want), onDisk, torntail)
			}

			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			reopened := mustOpen(t, dir, Config{})
			defer reopened.Close()
			if got := seqs(mustQueryAll(t, reopened)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after reopen Query returned seqs %v, want %v", got, want)
			}
			rst := reopened.Stats()
			if rst.Records != st.Records || rst.Bytes != st.Bytes || rst.TruncatedBytes != torntail {
				t.Fatalf("reopened: %d records / %d bytes, %d truncated; before Close %d / %d, %d torn",
					rst.Records, rst.Bytes, rst.TruncatedBytes, st.Records, st.Bytes, torntail)
			}
		})
	}
}

// TestAllocsAppendBatch pins the group append at zero allocations once
// the pending buffers have grown to the group's size.
func TestAllocsAppendBatch(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{SegmentBytes: 1 << 30, SyncInterval: time.Hour})
	defer s.Close()
	freezeFlusher(t, s) // commits happen in do, where they are counted
	recs := servedRecords(64, time.Time{})
	do := func() {
		for i := range recs {
			recs[i].Time = time.Time{}
		}
		if n, err := s.AppendBatch(recs); n != len(recs) || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		s.Stats()
	}
	do()
	if got := testing.AllocsPerRun(100, do); got != 0 {
		t.Fatalf("AppendBatch of 64 records allocates %.1f/op, want 0", got)
	}
}

// frame wraps a payload the way the store does.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzReadFrame feeds readFrame arbitrary segment bytes: every input is a
// record or an error, never a panic, and a frame it accepts is exactly the
// bytes its header describes, within the frame limit.
func FuzzReadFrame(f *testing.F) {
	for _, rec := range servedRecords(8, time.Date(2026, 10, 3, 9, 0, 0, 0, time.UTC)) {
		payload, err := appendRecord(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(payload))
		f.Add(frame(payload)[:frameHdr+len(payload)/2]) // torn
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                // length far past maxPayload
	f.Add(binary.LittleEndian.AppendUint32(nil, uint32(maxPayload))) // plausible length, no payload
	f.Add(frame([]byte(`{"seq":"x"}`)))
	f.Add(frame([]byte(`{"time":"not a time"}`)))
	f.Add(append(frame([]byte(`{"seq":1}`)), frame([]byte(`{"seq":2}`))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var consumed int64
		for {
			rec, n, err := readFrame(br)
			if err != nil {
				return
			}
			if n < frameHdr+1 || n > frameHdr+maxPayload || consumed+n > int64(len(data)) {
				t.Fatalf("frame of %d bytes accepted at offset %d of %d", n, consumed, len(data))
			}
			payload := data[consumed+frameHdr : consumed+n]
			if binary.LittleEndian.Uint32(data[consumed:]) != uint32(len(payload)) ||
				binary.LittleEndian.Uint32(data[consumed+4:]) != crc32.ChecksumIEEE(payload) {
				t.Fatalf("frame at offset %d accepted against its own header", consumed)
			}
			// What Query hands out, its callers encode again.
			if _, err := encodeJSON(rec); err != nil {
				t.Fatalf("accepted a record that cannot be encoded: %v", err)
			}
			consumed += n
		}
	})
}

// BenchmarkAppend and BenchmarkAppendBatch64 are the in-repo twins of the
// repo benchmark's verdictstore.append_us: served-shaped records through
// each front door, background flusher running as in the daemon.
func BenchmarkAppend(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Config{})
	defer s.Close()
	recs := servedRecords(64, time.Time{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}

func BenchmarkAppendBatch64(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Config{})
	defer s.Close()
	recs := servedRecords(64, time.Time{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j].Time = time.Time{}
		}
		if n, err := s.AppendBatch(recs); n != len(recs) || err != nil {
			b.Fatalf("AppendBatch = %d, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
