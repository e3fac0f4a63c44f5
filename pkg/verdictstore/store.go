// Package verdictstore is an embedded, append-only time-series store of
// served trusted-HMD verdicts — the persistent half of the paper's
// deployment loop. Every decision the serving layer makes (device, shard,
// version, prediction, entropy, votes, latency, and — for rejections —
// the raw features an analyst or retrainer needs) lands here, queryable
// by device, shard and time range, so drift monitoring and retraining can
// run offline from the exact evidence that was served online.
//
// The store is a directory of segment files. Records are framed as
// [uint32 length | uint32 CRC-32 | JSON payload]; the active segment
// rotates once it exceeds Config.SegmentBytes and retention drops the
// oldest segments beyond Config.MaxSegments. Recovery is crash-safe: Open
// scans every segment, truncates a torn tail at the last intact frame,
// and resumes the sequence number after the last durable record.
//
// Appends are group-committed. Append (one record) and AppendBatch (a
// group, such as a client batch's verdicts) run one locked body: refuse a
// closed store or a failed background commit, stamp sequence numbers and
// times, frame each record into an in-memory pending group, then wake the
// flusher (or, with Config.SyncEvery > 0, commit before returning). Only
// the framer differs: Append's is encoding/json, AppendBatch's writes the
// same bytes without reflection, so both doors write one format. A
// background flusher drains the whole group with one write syscall and
// fsyncs the active segment on a timer. An append
// issues no I/O itself; what it can wait for is the store lock, which the
// flusher holds across its write(2) and a rotation's sealing fsync (the
// timer's fsync runs outside it). Query, Stats, Sync and Close commit the
// pending group first, so a read always observes every append that
// returned before it; Query then reads its segments outside the lock.
// The durability contract: a crash loses at most one uncommitted group
// plus whatever the OS had not flushed since the last fsync tick — Sync
// forces full durability on demand, and Config.SyncEvery switches the
// store to synchronous writes when that window is too wide. A write that fails part-way (ENOSPC, EIO) is cut
// back to the last accounted frame, or, when even that fails, its segment
// is sealed; either way no later record lands behind a torn frame, and
// reads stop at the accounted bytes.
//
// A Store is safe for concurrent use.
package verdictstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one served verdict. Seq is store-assigned and strictly
// increasing across segments and restarts; Time is stamped at append when
// the caller leaves it zero.
type Record struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Device  string    `json:"device,omitempty"`
	Model   string    `json:"model"`
	Version uint64    `json:"version"`
	// Source names the serving path that produced the verdict: "assess",
	// "batch" or "stream". Records written by daemons that still had the
	// in-process ingest door may read "ingest".
	Source     string  `json:"source,omitempty"`
	Prediction int     `json:"prediction"`
	Decision   string  `json:"decision"`
	Entropy    float64 `json:"entropy"`
	// Votes is the normalised member-vote distribution.
	Votes []float64 `json:"votes,omitempty"`
	// LatencyMicros is the serving-side latency of the verdict.
	LatencyMicros int64 `json:"latency_us,omitempty"`
	// Features carries the raw input vector when the serving layer chose
	// to persist it (by default only for rejected verdicts — they are the
	// forensic evidence retraining needs; accepted verdicts stay compact).
	Features []float64 `json:"features,omitempty"`
}

// Config tunes the store; the zero value gets sane defaults.
type Config struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// MaxSegments bounds retention: once rotation would exceed it, the
	// oldest segments are deleted, records and all (default 16 segments —
	// with the default segment size, ~64 MiB of verdict history).
	MaxSegments int
	// SyncEvery selects the durability mode. 0 (the default) is group
	// commit: Append frames the record into a pending group and returns,
	// and a background flusher writes each group with one syscall,
	// fsyncing every SyncInterval. N > 0 makes Append synchronous — the
	// record is written before Append returns and the segment is fsynced
	// every N records (1 = fsync per append, write-ahead-log durability;
	// an AppendBatch group is written, and counted, as a whole).
	SyncEvery int
	// SyncInterval is the background fsync cadence of group-commit mode
	// (default 100ms). Ignored when SyncEvery > 0.
	SyncInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 16
	}
	if c.SyncEvery < 0 {
		c.SyncEvery = 0
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	return c
}

// Filter selects records for Query. Zero fields match everything.
type Filter struct {
	// Device / Model match exactly when non-empty.
	Device string
	Model  string
	// SinceSeq selects records with Seq >= SinceSeq.
	SinceSeq uint64
	// Since / Until bound the record time (inclusive / exclusive).
	Since time.Time
	Until time.Time
	// Limit caps the result count (0 = unlimited).
	Limit int
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Records is the number of live (queryable) records across all
	// segments; Appended counts appends by this process and Recovered the
	// records readable at Open.
	Records   int64 `json:"records"`
	Appended  int64 `json:"appended"`
	Recovered int64 `json:"recovered"`
	// TruncatedBytes is how much torn tail Open cut off (0 on a clean
	// shutdown).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Dropped counts records lost to segment retention.
	Dropped int64 `json:"dropped,omitempty"`
	// Segments / Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// FirstSeq is the oldest live record's sequence number (0 when
	// empty); NextSeq the sequence the next append will take.
	FirstSeq uint64 `json:"first_seq,omitempty"`
	NextSeq  uint64 `json:"next_seq"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("verdictstore: store is closed")

// segment is the metadata of one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
	minTime  int64 // unix nanos; 0 when empty
	maxTime  int64
	records  int64
	bytes    int64
}

// pendMeta is the bookkeeping of one framed-but-unwritten record in the
// pending group: what commitLocked needs to account the frame to its
// segment without retaining the Record (the frame bytes live in pendBuf,
// so Append borrows nothing from the caller past its return).
type pendMeta struct {
	seq  uint64
	tn   int64 // Record.Time in unix nanos, for segment time bounds
	size int   // frame bytes (header + payload) in pendBuf
}

// segmentFile is what the store does to the active segment: *os.File,
// opened O_APPEND, or a test's wrapper that injects disk faults.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
}

// openSegment opens a segment for Query, which reads it after releasing
// the store lock. A test swaps it (Store.openSeg) for a wrapper that parks
// the read mid-segment.
func openSegment(path string) (io.ReadCloser, error) { return os.Open(path) }

// Store is the embedded verdict log. Open one per daemon.
type Store struct {
	dir string
	cfg Config

	mu     sync.Mutex
	closed bool
	segs   []*segment  // oldest first; the last one is active
	f      segmentFile // active segment, O_APPEND; nil until the next commit opens one
	// openSeg opens the segments a Query reads: openSegment outside tests.
	openSeg func(path string) (io.ReadCloser, error)

	// The pending group: Append frames records into pendBuf (metadata in
	// pending) and the flusher — or the next Query/Stats/Sync/Close —
	// commits the whole group with one write syscall.
	pending   []pendMeta
	pendBuf   []byte
	encBuf    bytes.Buffer
	enc       *json.Encoder
	dirty     bool  // active segment has writes not yet fsynced
	werr      error // sticky background commit error; surfaced and cleared by the next Append/Sync
	sinceSync int   // records since the last fsync (SyncEvery > 0 mode)

	signal chan struct{} // wakes the flusher after an append; cap 1, non-blocking send
	stopCh chan struct{} // nil when no flusher runs (SyncEvery > 0)
	wg     sync.WaitGroup

	nextSeq   uint64
	appended  int64
	recovered int64
	truncated int64
	dropped   int64
}

const (
	segSuffix  = ".seg"
	segPrefix  = "verdicts-"
	frameHdr   = 8        // uint32 length + uint32 crc
	maxPayload = 16 << 20 // sanity bound on one frame
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix)
}

// Open creates or recovers a store in dir (created if missing). Torn
// tails from a crash mid-append are truncated at the last intact frame.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verdictstore: %w", err)
	}
	s := &Store{dir: dir, cfg: cfg, nextSeq: 1, openSeg: openSegment}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("verdictstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names) // zero-padded first-seq names sort chronologically
	for _, n := range names {
		seg, err := s.recoverSegment(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
		s.recovered += seg.records
		if seg.lastSeq >= s.nextSeq {
			s.nextSeq = seg.lastSeq + 1
		}
	}
	// Resume the last segment when it has rotation headroom; otherwise
	// (or when the directory is empty) the first commit opens a fresh one.
	if n := len(s.segs); n > 0 && s.segs[n-1].bytes < cfg.SegmentBytes {
		f, err := os.OpenFile(s.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("verdictstore: %w", err)
		}
		s.f = f
	}
	s.enc = json.NewEncoder(&s.encBuf)
	s.signal = make(chan struct{}, 1)
	if cfg.SyncEvery == 0 {
		s.stopCh = make(chan struct{})
		s.wg.Add(1)
		go s.flusher(s.signal, s.stopCh)
	}
	return s, nil
}

// recoverSegment scans one segment file, truncating any torn tail.
func (s *Store) recoverSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("verdictstore: %w", err)
	}
	defer f.Close()
	seg := &segment{path: path}
	br := bufio.NewReader(f)
	var offset, good int64
	for {
		rec, n, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: keep the intact prefix, drop the rest.
			break
		}
		offset += n
		good = offset
		seg.note(rec.Seq, rec.Time.UnixNano())
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("verdictstore: %w", err)
	}
	if fi.Size() > good {
		s.truncated += fi.Size() - good
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("verdictstore: truncate torn tail of %s: %w", path, err)
		}
	}
	seg.bytes = good
	return seg, nil
}

// note folds one recovered or committed record into the segment metadata.
func (g *segment) note(seq uint64, tn int64) {
	if g.records == 0 {
		g.firstSeq = seq
	}
	g.lastSeq = seq
	if g.records == 0 || tn < g.minTime {
		g.minTime = tn
	}
	if tn > g.maxTime {
		g.maxTime = tn
	}
	g.records++
}

// readFrame decodes one length+CRC framed record, returning the bytes
// consumed. io.EOF means a clean end; any other error marks corruption.
func readFrame(br *bufio.Reader) (Record, int64, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("verdictstore: short frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxPayload {
		return Record{}, 0, fmt.Errorf("verdictstore: implausible frame length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, 0, fmt.Errorf("verdictstore: short frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, errors.New("verdictstore: frame checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, fmt.Errorf("verdictstore: frame payload: %w", err)
	}
	return rec, frameHdr + int64(length), nil
}

// Append stamps and persists one record, returning its sequence number.
// In group-commit mode (Config.SyncEvery == 0) the record is framed into
// the pending group and written by the background flusher: Append issues
// no I/O itself, though it can wait for the store lock while the flusher's
// write(2) is in flight, and Query still observes the record immediately.
// With SyncEvery > 0 the write (and every N-th fsync) happens before
// Append returns. Append borrows nothing from rec: the frame is encoded
// before Append returns, so the caller may reuse Votes and Features. For
// many records at once, AppendBatch does the same under one lock.
func (s *Store) Append(rec Record) (uint64, error) {
	recs := [1]Record{rec}
	if _, err := s.appendRecs(recs[:], true); err != nil {
		return 0, err
	}
	return recs[0].Seq, nil
}

// AppendBatch stamps and persists a group of records as one append: one
// lock acquisition, one flusher wake-up (or, with SyncEvery > 0, one
// commit), frames encoded straight into the pending group. It returns how
// many records were accepted and the first error.
//
// The group contract:
//   - recs is stamped in place. Accepted records get contiguous sequence
//     numbers in slice order; records with a zero Time share one clock
//     reading.
//   - A record that cannot be framed (a NaN or infinite float, a Time
//     encoding/json would refuse, a payload over the frame limit) is
//     skipped — its Seq is left 0 and it consumes no sequence number — and
//     the rest of the group still lands; n counts the accepted ones.
//   - A closed store, or a background commit failure waiting to be
//     surfaced, refuses the whole group: n is 0 and nothing is stamped.
//   - Borrowing ends at return: every frame is encoded before AppendBatch
//     returns, so Votes and Features may alias buffers the caller reuses.
//
// With SyncEvery > 0 a failed commit reports n = 0, though a group that
// straddled a rotation may have landed in part.
func (s *Store) AppendBatch(recs []Record) (n int, err error) {
	if len(recs) == 0 {
		return 0, nil
	}
	return s.appendRecs(recs, false)
}

// appendRecs is the locked body of both doors, with AppendBatch's contract.
// Only the framer differs: viaJSON frames through encoding/json (Append),
// otherwise appendRecord writes the same bytes without reflection.
func (s *Store) appendRecs(recs []Record, viaJSON bool) (n int, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if err := s.werr; err != nil {
		// Surface (and clear) a background commit failure on the append
		// path instead of acknowledging records a dead disk will lose.
		s.werr = nil
		s.mu.Unlock()
		return 0, err
	}
	var now time.Time
	for i := range recs {
		rec := &recs[i]
		rec.Seq = s.nextSeq
		if rec.Time.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			rec.Time = now
		}
		// Reserve the header, encode the payload behind it, then patch
		// length and checksum in.
		mark := len(s.pendBuf)
		buf := append(s.pendBuf, make([]byte, frameHdr)...)
		var ferr error
		if viaJSON {
			buf, ferr = s.appendJSON(buf, rec)
		} else {
			buf, ferr = appendRecord(buf, rec)
		}
		payload := buf[mark+frameHdr:]
		if ferr == nil && len(payload) > maxPayload {
			ferr = fmt.Errorf("record of %d bytes exceeds frame limit", len(payload))
		}
		if ferr != nil {
			s.pendBuf = buf[:mark]
			rec.Seq = 0
			if err == nil {
				err = fmt.Errorf("verdictstore: %w", ferr)
			}
			continue
		}
		binary.LittleEndian.PutUint32(buf[mark:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[mark+4:], crc32.ChecksumIEEE(payload))
		s.pendBuf = buf
		s.pending = append(s.pending, pendMeta{seq: rec.Seq, tn: rec.Time.UnixNano(), size: frameHdr + len(payload)})
		s.nextSeq++
		n++
	}
	s.appended += int64(n)
	if s.cfg.SyncEvery > 0 {
		cerr := s.commitLocked()
		if cerr == nil {
			s.sinceSync += n
			if s.sinceSync >= s.cfg.SyncEvery && s.f != nil {
				if serr := s.f.Sync(); serr != nil {
					cerr = fmt.Errorf("verdictstore: %w", serr)
				}
				s.dirty = false
				s.sinceSync = 0
			}
		}
		s.mu.Unlock()
		if cerr != nil {
			return 0, cerr
		}
		return n, err
	}
	s.mu.Unlock()
	if n > 0 {
		select {
		case s.signal <- struct{}{}:
		default: // flusher already signalled
		}
	}
	return n, err
}

// appendJSON appends rec's frame payload as encoding/json writes it,
// without Encode's trailing newline. It encodes a copy of the record, so
// rec does not escape and Append's one-record group stays on its stack.
// Callers hold s.mu.
func (s *Store) appendJSON(dst []byte, rec *Record) ([]byte, error) {
	s.encBuf.Reset()
	if err := s.enc.Encode(*rec); err != nil {
		return dst, err
	}
	payload := s.encBuf.Bytes()
	return append(dst, payload[:len(payload)-1]...), nil
}

func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// commitLocked writes the pending group to the active segment — one
// write syscall per contiguous run, rotating mid-group when the segment
// bound is crossed. The group is consumed whether or not the commit
// lands: a write failure drops the frames not yet written (the error is
// the caller's, or parks in werr for the next Append/Sync to surface)
// rather than retrying forever against a dead disk. Callers hold s.mu.
func (s *Store) commitLocked() error {
	if len(s.pending) == 0 {
		return nil
	}
	defer func() {
		s.pending = s.pending[:0]
		s.pendBuf = s.pendBuf[:0]
	}()
	// The current run is pending[first:i], framed in pendBuf[start:off].
	first, start, off := 0, 0, 0
	for i, pm := range s.pending {
		if s.f == nil || s.active().bytes+int64(off-start) >= s.cfg.SegmentBytes {
			// Write the outgoing segment's run before rotation seals it.
			if err := s.writeRun(first, i, start, off); err != nil {
				return err
			}
			first, start = i, off
			if err := s.rotateLocked(pm.seq); err != nil {
				return err
			}
		}
		off += pm.size
	}
	return s.writeRun(first, len(s.pending), start, off)
}

// writeRun pushes pendBuf[start:end] — the frames of pending[first:last]
// — to the active segment in one Write, and only once the write has
// landed accounts them to it: a failed write must not leave the segment's
// record count, size and bounds describing frames that are not on disk,
// nor a torn frame in front of the next run. Callers hold s.mu.
func (s *Store) writeRun(first, last, start, end int) error {
	if first == last {
		return nil
	}
	n, err := s.f.Write(s.pendBuf[start:end])
	if err != nil {
		// A write that failed part-way (ENOSPC, EIO) leaves a torn run
		// behind the last accounted frame. Cut it off; O_APPEND puts the
		// next write at the new end.
		if s.f.Truncate(s.active().bytes) != nil {
			s.sealTorn(first, start, start+n)
		}
		return fmt.Errorf("verdictstore: %w", err)
	}
	s.account(first, last, end-start)
	return nil
}

// account adds the frames of pending[first:last], size bytes in all, to
// the active segment. Callers hold s.mu.
func (s *Store) account(first, last, size int) {
	s.dirty = true
	seg := s.active()
	for _, pm := range s.pending[first:last] {
		seg.note(pm.seq, pm.tn)
	}
	seg.bytes += int64(size)
}

// sealTorn retires an active segment whose torn run could not be cut off:
// the next commit opens a fresh segment, so a torn frame is only ever the
// tail of a sealed one, which Query never reads past and Open truncates.
// The run's whole frames that did land (pendBuf up to landed) are
// accounted, since Open will recover them: Query shows what a restart
// will. Callers hold s.mu.
func (s *Store) sealTorn(first, start, landed int) {
	last, end := first, start
	for last < len(s.pending) && end+s.pending[last].size <= landed {
		end += s.pending[last].size
		last++
	}
	s.account(first, last, end-start)
	// Best effort: the write's error is the one reported, and a disk that
	// cannot truncate may not sync or close either.
	_ = s.f.Sync()
	_ = s.f.Close()
	s.f = nil
	s.dirty = false
}

// rotateLocked seals the active segment (fsync + close) and opens a
// fresh one named for the first sequence it will hold, then enforces
// retention. Callers hold s.mu.
func (s *Store) rotateLocked(firstSeq uint64) error {
	if s.f != nil {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("verdictstore: %w", err)
		}
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("verdictstore: %w", err)
		}
		s.f = nil
		s.dirty = false
	}
	path := filepath.Join(s.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("verdictstore: %w", err)
	}
	s.f = f
	s.segs = append(s.segs, &segment{path: path, firstSeq: firstSeq})
	// Retention: drop the oldest sealed segments beyond the bound. The
	// fresh (last) segment is never a candidate.
	for len(s.segs) > s.cfg.MaxSegments {
		old := s.segs[0]
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("verdictstore: retention: %w", err)
		}
		s.dropped += old.records
		s.segs = s.segs[1:]
	}
	return nil
}

// flusher is the group-commit goroutine: drain the pending group on
// every append signal (one write syscall per group), fsync the active
// segment on the SyncInterval tick, final-drain on shutdown. The
// channels are captured at start so Close can clear the Store fields.
func (s *Store) flusher(signal, stop chan struct{}) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-signal:
			s.drain(false)
		case <-ticker.C:
			s.drain(true)
		case <-stop:
			s.drain(false)
			return
		}
	}
}

// drain commits the pending group; with fsync it also makes the active
// segment durable (outside the lock, so appends keep flowing while the
// disk syncs). Commit failures park in werr for Append/Sync to surface.
func (s *Store) drain(fsync bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if err := s.commitLocked(); err != nil && s.werr == nil {
		s.werr = err
	}
	var f segmentFile
	if fsync && s.dirty && s.f != nil {
		f, s.dirty = s.f, false
	}
	s.mu.Unlock()
	if f != nil {
		// A background fsync error is not actionable here; a genuinely
		// dead disk fails the next commit's write, which is sticky.
		_ = f.Sync()
	}
}

// Query returns the records matching f in sequence order. It observes
// every Append that returned before the call, flushed or not. The store
// lock covers only the commit and the opening of the segments f selects;
// they are read and decoded after it is released, each up to the bytes it
// held at that moment, so appends, and retention removing a segment being
// read, go on meanwhile.
func (s *Store) Query(f Filter) ([]Record, error) {
	reads, err := s.openQuery(f)
	defer func() {
		for _, r := range reads {
			r.rc.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, r := range reads {
		br := bufio.NewReader(io.LimitReader(r.rc, r.bytes))
		for {
			rec, _, err := readFrame(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if !f.matches(rec) {
				continue
			}
			out = append(out, rec)
			if f.Limit > 0 && len(out) >= f.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// segmentRead is one segment a Query reads: its open file and the bytes
// accounted to it when it was opened.
type segmentRead struct {
	rc    io.ReadCloser
	bytes int64
}

// openQuery is Query's locked part: commit the pending group, so the read
// sees everything appended, then open every segment f can match. On error
// it also returns what it opened, for the caller to close.
func (s *Store) openQuery(f Filter) ([]segmentRead, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.commitLocked(); err != nil {
		return nil, err
	}
	var reads []segmentRead
	for _, seg := range s.segs {
		if seg.records == 0 || seg.lastSeq < f.SinceSeq {
			continue
		}
		if !f.Until.IsZero() && seg.minTime >= f.Until.UnixNano() {
			continue
		}
		if !f.Since.IsZero() && seg.maxTime < f.Since.UnixNano() {
			continue
		}
		rc, err := s.openSeg(seg.path)
		if err != nil {
			return reads, fmt.Errorf("verdictstore: %w", err)
		}
		// Only the accounted bytes: past them a sealed segment may end in
		// a run whose write failed part-way, and the active one grows.
		reads = append(reads, segmentRead{rc: rc, bytes: seg.bytes})
	}
	return reads, nil
}

func (f Filter) matches(rec Record) bool {
	if rec.Seq < f.SinceSeq {
		return false
	}
	if f.Device != "" && rec.Device != f.Device {
		return false
	}
	if f.Model != "" && rec.Model != f.Model {
		return false
	}
	if !f.Since.IsZero() && rec.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !rec.Time.Before(f.Until) {
		return false
	}
	return true
}

// Sync commits the pending group and fsyncs the active segment, making
// every acknowledged append durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.werr; err != nil {
		s.werr = nil
		return err
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("verdictstore: %w", err)
	}
	s.dirty = false
	s.sinceSync = 0
	return nil
}

// Stats snapshots the store's counters. Like Query it commits the
// pending group first, so Records counts every Append that returned.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		if err := s.commitLocked(); err != nil && s.werr == nil {
			s.werr = err
		}
	}
	st := Stats{
		Appended:       s.appended,
		Recovered:      s.recovered,
		TruncatedBytes: s.truncated,
		Dropped:        s.dropped,
		Segments:       len(s.segs),
		NextSeq:        s.nextSeq,
	}
	for _, seg := range s.segs {
		st.Records += seg.records
		st.Bytes += seg.bytes
		if st.FirstSeq == 0 && seg.records > 0 {
			st.FirstSeq = seg.firstSeq
		}
	}
	return st
}

// Close commits the pending group, fsyncs, and seals the active segment.
// Further operations return ErrClosed; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.commitLocked()
	s.closed = true
	if s.f != nil {
		if serr := s.f.Sync(); err == nil && serr != nil {
			err = fmt.Errorf("verdictstore: %w", serr)
		}
		if cerr := s.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("verdictstore: %w", cerr)
		}
		s.f = nil
	}
	if err == nil && s.werr != nil {
		err, s.werr = s.werr, nil
	}
	stop := s.stopCh
	s.stopCh = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		s.wg.Wait()
	}
	return err
}
