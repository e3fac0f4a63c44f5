package verdictstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func mustAppend(t *testing.T, s *Store, rec Record) uint64 {
	t.Helper()
	seq, err := s.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		dev := "edge-1"
		if i%2 == 1 {
			dev = "edge-2"
		}
		rec := Record{
			Time:       base.Add(time.Duration(i) * time.Second),
			Device:     dev,
			Model:      "rf",
			Version:    1,
			Source:     "assess",
			Prediction: i % 2,
			Decision:   "benign",
			Entropy:    0.1 * float64(i),
			Votes:      []float64{0.8, 0.2},
		}
		if i == 7 {
			rec.Decision = "reject"
			rec.Features = []float64{1, 2, 3}
		}
		seq := mustAppend(t, s, rec)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}

	all, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(all) != 20 {
		t.Fatalf("got %d records, want 20", len(all))
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if all[7].Decision != "reject" || len(all[7].Features) != 3 {
		t.Fatalf("rejected record lost its features: %+v", all[7])
	}

	byDev, err := s.Query(Filter{Device: "edge-2"})
	if err != nil {
		t.Fatalf("Query device: %v", err)
	}
	if len(byDev) != 10 {
		t.Fatalf("device filter: got %d, want 10", len(byDev))
	}
	for _, rec := range byDev {
		if rec.Device != "edge-2" {
			t.Fatalf("device filter leaked %q", rec.Device)
		}
	}

	sinceSeq, err := s.Query(Filter{SinceSeq: 15})
	if err != nil {
		t.Fatalf("Query sinceSeq: %v", err)
	}
	if len(sinceSeq) != 6 || sinceSeq[0].Seq != 15 {
		t.Fatalf("sinceSeq filter: got %d records starting at %d", len(sinceSeq), sinceSeq[0].Seq)
	}

	window, err := s.Query(Filter{
		Since: base.Add(5 * time.Second),
		Until: base.Add(10 * time.Second),
	})
	if err != nil {
		t.Fatalf("Query window: %v", err)
	}
	if len(window) != 5 {
		t.Fatalf("time window: got %d, want 5", len(window))
	}

	limited, err := s.Query(Filter{Limit: 3})
	if err != nil {
		t.Fatalf("Query limit: %v", err)
	}
	if len(limited) != 3 {
		t.Fatalf("limit: got %d, want 3", len(limited))
	}

	st := s.Stats()
	if st.Records != 20 || st.Appended != 20 || st.NextSeq != 21 || st.FirstSeq != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force frequent rotation; MaxSegments 3 forces drops.
	s, err := Open(dir, Config{SegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		mustAppend(t, s, Record{Device: "d", Model: "m", Version: 1, Decision: "benign", Entropy: 0.5})
	}
	st := s.Stats()
	if st.Segments > 3 {
		t.Fatalf("retention kept %d segments, cap 3", st.Segments)
	}
	if st.Dropped == 0 {
		t.Fatalf("expected dropped records, got stats %+v", st)
	}
	if st.Records+st.Dropped != 60 {
		t.Fatalf("records %d + dropped %d != 60", st.Records, st.Dropped)
	}
	// Surviving records are the newest, contiguous up to the last seq.
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != int(st.Records) {
		t.Fatalf("query saw %d, stats claim %d", len(recs), st.Records)
	}
	if recs[len(recs)-1].Seq != 60 {
		t.Fatalf("newest record seq = %d, want 60", recs[len(recs)-1].Seq)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap between seq %d and %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 5 || st.NextSeq != 6 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 1, Decision: "malware"}); seq != 6 {
		t.Fatalf("post-reopen seq = %d, want 6", seq)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != 6 || recs[5].Decision != "malware" {
		t.Fatalf("reopened store contents wrong: %d records", len(recs))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign", Entropy: float64(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: garbage half-frame at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	f.Close()

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 4 {
		t.Fatalf("recovered %d records, want 4", st.Recovered)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("expected truncated bytes, stats %+v", st)
	}
	// The store must keep appending cleanly after truncation.
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 2, Decision: "reject"}); seq != 5 {
		t.Fatalf("post-recovery seq = %d, want 5", seq)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
}

func TestCorruptMiddleFrameStopsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	s.Close()

	// Flip a payload byte in the second frame: recovery keeps only the
	// intact prefix (frame 1) and truncates the rest.
	segs, _ := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	frameLen := int(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	second := 8 + frameLen // offset of frame 2's header
	data[second+8+4] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("stats after mid-segment corruption: %+v", st)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Append(Record{}); err != ErrClosed {
		t.Fatalf("Append on closed store: %v", err)
	}
	if _, err := s.Query(Filter{}); err != ErrClosed {
		t.Fatalf("Query on closed store: %v", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync on closed store: %v", err)
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				if _, err := s.Append(Record{Model: "m", Version: 1, Decision: "benign"}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := s.Query(Filter{Limit: 5}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
	if st := s.Stats(); st.Appended != 200 {
		t.Fatalf("appended %d, want 200", st.Appended)
	}
}

// freezeFlusher stops a group-commit store's background flusher so the
// test alone decides when the pending group commits (white-box: pending
// appends then accumulate until Sync/Query/Stats/Close forces them out).
func freezeFlusher(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	stop := s.stopCh
	s.stopCh = nil
	s.mu.Unlock()
	if stop == nil {
		t.Fatal("store has no flusher to freeze")
	}
	close(stop)
	s.wg.Wait()
}

// copySegments snapshots dir's segment files into a fresh directory — the
// on-disk state a crash at this instant would leave behind (Close, with
// its final commit and fsync, never runs for the copy).
func copySegments(t *testing.T, dir string) string {
	t.Helper()
	crash := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatalf("copy %s: %v", p, err)
		}
	}
	return crash
}

// TestGroupCommitCrashRecoveryAtRotation drives one multi-record group
// commit across several segment rotations, "crashes" (copies the segment
// files without Close), tears the newest segment mid-frame, and reopens:
// recovery must truncate exactly the torn frame, keep every other record
// of the group, and continue the sequence.
func TestGroupCommitCrashRecoveryAtRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentBytes: 512, MaxSegments: 64, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	freezeFlusher(t, s)

	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Device: "edge", Model: "m", Version: 1, Decision: "benign", Entropy: float64(i), Votes: []float64{0.7, 0.3}})
	}
	s.mu.Lock()
	pendingLen := len(s.pending)
	s.mu.Unlock()
	if pendingLen != n {
		t.Fatalf("pending %d records, want %d (flusher frozen, nothing read yet)", pendingLen, n)
	}
	// One group commit: the whole run lands with rotation decisions made
	// mid-group, frames batched per segment into single writes.
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := s.Stats()
	if st.Records != n || st.Segments < 2 {
		t.Fatalf("after group commit: %+v (want %d records across >= 2 segments)", st, n)
	}

	crash := copySegments(t, dir)
	segs, err := filepath.Glob(filepath.Join(crash, "verdicts-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("crash copy has %d segments (%v), want the rotation to have happened", len(segs), err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Tear the active segment mid-frame, as a crash part-way through the
	// group's final write would.
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(crash, Config{SegmentBytes: 512, MaxSegments: 64})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	defer s2.Close()
	st2 := s2.Stats()
	if st2.TruncatedBytes == 0 {
		t.Fatalf("expected a truncated torn tail, stats %+v", st2)
	}
	if st2.Recovered != n-1 {
		t.Fatalf("recovered %d records, want %d (only the torn frame may be lost)", st2.Recovered, n-1)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != n-1 {
		t.Fatalf("query saw %d records, want %d", len(recs), n-1)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — recovery left a gap", i, rec.Seq)
		}
	}
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 1, Decision: "reject"}); seq != n {
		t.Fatalf("post-recovery seq = %d, want %d", seq, n)
	}
	if recs, err = s2.Query(Filter{}); err != nil || len(recs) != n {
		t.Fatalf("after post-recovery append: %d records (%v), want %d", len(recs), err, n)
	}
}

// TestSyncEverySynchronousDurability: with SyncEvery > 0 there is no
// flusher and every Append is on disk (written and fsynced at the
// configured cadence) before it returns — a crash copy taken with no
// Sync and no Close recovers every acknowledged record.
func TestSyncEverySynchronousDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SyncEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.stopCh != nil {
		t.Fatal("synchronous mode must not start a background flusher")
	}
	const n = 5
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign", Entropy: float64(i)})
	}
	crash := copySegments(t, dir)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(crash, Config{})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != n || st.TruncatedBytes != 0 {
		t.Fatalf("synchronous appends not all durable: %+v", st)
	}
}

// TestGroupCommitReadsObservePending: Query and Stats must commit the
// pending group themselves — every Append that returned is visible even
// when the background flusher never ran.
func TestGroupCommitReadsObservePending(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	freezeFlusher(t, s)
	const n = 10
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("query saw %d records, want %d (pending group not committed on read)", len(recs), n)
	}
	if st := s.Stats(); st.Records != n {
		t.Fatalf("stats records %d, want %d", st.Records, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// parkedReader blocks its first Read until release is closed, announcing
// on parked that a Query is now mid-segment.
type parkedReader struct {
	io.ReadCloser
	once    sync.Once
	parked  chan<- struct{}
	release <-chan struct{}
}

func (p *parkedReader) Read(b []byte) (int, error) {
	p.once.Do(func() {
		p.parked <- struct{}{}
		<-p.release
	})
	return p.ReadCloser.Read(b)
}

// TestQueryReadsOutsideLock parks a Query inside its first segment read
// and checks that Append, AppendBatch and Stats all return meanwhile, even
// while the appends rotate the parked segment out of retention, and that
// the parked Query then returns exactly what it would have returned
// unparked: the records of before the call, none of those appended during
// it.
func TestQueryReadsOutsideLock(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SegmentBytes: 512, MaxSegments: 2, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	want, err := s.Query(Filter{})
	if err != nil || len(want) == 0 {
		t.Fatalf("Query: %d records, %v", len(want), err)
	}
	oldest := s.Stats().FirstSeq

	parked, release := make(chan struct{}), make(chan struct{})
	var parkedPath string
	var once sync.Once
	s.openSeg = func(path string) (io.ReadCloser, error) {
		rc, err := openSegment(path)
		if err != nil {
			return nil, err
		}
		var out io.ReadCloser = rc
		once.Do(func() {
			parkedPath = path
			out = &parkedReader{ReadCloser: rc, parked: parked, release: release}
		})
		return out, nil
	}
	type result struct {
		recs []Record
		err  error
	}
	queried := make(chan result, 1)
	go func() {
		recs, err := s.Query(Filter{})
		queried <- result{recs, err}
	}()
	<-parked

	done := make(chan error, 1)
	go func() {
		if _, err := s.Append(Record{Model: "m", Version: 1, Decision: "benign"}); err != nil {
			done <- err
			return
		}
		batch := make([]Record, 16)
		for i := range batch {
			batch[i] = Record{Model: "m", Version: 1, Decision: "malware"}
		}
		if _, err := s.AppendBatch(batch); err != nil {
			done <- err
			return
		}
		if st := s.Stats(); st.FirstSeq <= oldest {
			done <- fmt.Errorf("stats first seq %d: retention never dropped the parked segment", st.FirstSeq)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			close(release)
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		<-queried
		t.Fatal("Append, AppendBatch or Stats waited behind a Query parked mid-read")
	}
	if _, err := os.Stat(parkedPath); !os.IsNotExist(err) {
		close(release)
		t.Fatalf("parked segment %s still on disk: %v", parkedPath, err)
	}
	close(release)
	got := <-queried
	if got.err != nil {
		t.Fatalf("parked Query: %v", got.err)
	}
	if !reflect.DeepEqual(got.recs, want) {
		t.Fatalf("parked Query returned %d records, want the %d of before the call", len(got.recs), len(want))
	}
}
