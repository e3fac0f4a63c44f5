package detector

import (
	"errors"
	"fmt"
	"sync"
)

// ErrSessionClosed is returned by Session.Push after Close.
var ErrSessionClosed = errors.New("detector: session closed")

// Session is the transport-agnostic streaming-assessment contract: a thin
// lifecycle wrapper over Online that serving layers (HTTP NDJSON, gRPC,
// message queues) can hold per connection. It adds what a transport needs
// and Online deliberately omits: an explicit Close with idempotent
// semantics, a snapshot of cumulative session statistics, and internal
// locking so a transport may Push from its read loop while another
// goroutine tears the session down on disconnect.
//
// A Session pins the detector it was opened on: swapping the underlying
// model in a serving fleet never changes the decisions of sessions already
// in flight (they drain on the old pipeline, exactly like coalesced
// batches do).
type Session struct {
	mu     sync.Mutex
	online *Online
	closed bool
}

// SessionStats is a point-in-time snapshot of a session's activity.
type SessionStats struct {
	// Samples counts every state accepted into the session's window
	// (out-of-range states are rejected before the window and do not
	// count; samples whose assessment failed do — the window retains
	// them).
	Samples int `json:"samples"`
	// Decisions counts emitted window decisions.
	Decisions int `json:"decisions"`
	// Benign/Malware/Rejected split the decisions by verdict.
	Benign   int `json:"benign"`
	Malware  int `json:"malware"`
	Rejected int `json:"rejected"`
	// CacheHits counts windows served from the window memo
	// (see OnlineStats.CacheHits).
	CacheHits int `json:"cache_hits"`
}

// SessionState is the replayable snapshot of a streaming session: the
// window buffer linearised oldest-first, the per-stride phase counter and
// the cumulative stats. It is everything another node needs to continue
// the stream with decisions element-wise identical to never having moved —
// the unit a cluster replays onto a shard's new owner on failover.
type SessionState struct {
	Window    []int       `json:"window"`
	SinceLast int         `json:"since_last"`
	Stats     OnlineStats `json:"stats"`
}

// Export snapshots the session's replayable state. It is safe to call
// concurrently with Push and remains readable after Close.
func (s *Session) Export() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.online.exportState()
}

// ResumeSession opens a streaming session continuing from an exported
// state (nil state means a fresh session, exactly like NewSession). The
// detector need not be the same instance the state was exported from —
// only the same trained model, if identical decisions are required.
func ResumeSession(d *Detector, cfg StreamConfig, st *SessionState) (*Session, error) {
	o, err := resumeOnline(d, cfg, st)
	if err != nil {
		return nil, err
	}
	return &Session{online: o}, nil
}

// NewSession opens a streaming session over a trained detector. The
// config is validated exactly like NewOnline's.
func NewSession(d *Detector, cfg StreamConfig) (*Session, error) {
	o, err := NewOnline(d, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{online: o}, nil
}

// Push feeds one DVFS state sample; ok reports whether a window decision
// was produced. After Close it returns ErrSessionClosed.
func (s *Session) Push(state int) (Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{}, false, ErrSessionClosed
	}
	res, ok, err := s.online.Push(state)
	if err != nil {
		return Result{}, false, err
	}
	return res, ok, nil
}

// PushAll feeds a chunk of samples and returns the decisions emitted along
// the way. It stops at the first error, which reports the offending
// sample's index within states.
func (s *Session) PushAll(states []int) ([]Result, error) {
	var out []Result
	for i, st := range states {
		res, ok, err := s.Push(st)
		if err != nil {
			return out, fmt.Errorf("sample %d: %w", i, err)
		}
		if ok {
			out = append(out, res)
		}
	}
	return out, nil
}

// Close ends the session. It is idempotent; subsequent Push calls return
// ErrSessionClosed while Stats stays readable.
func (s *Session) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Stats snapshots the session's cumulative counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.online.Stats
	return SessionStats{
		Samples:   st.Samples,
		Decisions: st.Total(),
		Benign:    st.Benign,
		Malware:   st.Malware,
		Rejected:  st.Rejected,
		CacheHits: st.CacheHits,
	}
}
