package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// streamWriteTimeout bounds every response write on a live stream: a
// healthy client drains its socket far faster, while a client that sends
// states without ever reading responses trips it instead of wedging the
// handler goroutine (the daemon's http.Server sets no WriteTimeout —
// streams are meant to outlive any fixed budget).
const streamWriteTimeout = 30 * time.Second

// drainWriteGrace is how long a draining stream may keep writing (the
// summary line to a healthy client) before its connection is expired; it
// must stay well under any graceful-shutdown budget.
const drainWriteGrace = time.Second

// POST /v1/assess/stream is the raw-telemetry transport: instead of
// client-side feature extraction feeding /v1/assess, a client streams the
// DVFS states themselves and the server runs the full online loop (sliding
// window, feature extraction, trusted decision) through a per-connection
// detector.Online.
//
// The protocol is newline-delimited JSON both ways:
//
//	-> {"model":"m","device":"d","levels":3,"window":16,"stride":4}  header, first line
//	-> {"state":2}              one sample
//	-> {"states":[0,1,2]}       a chunk of samples
//	<- {"seq":1,"sample":16,"model":"m","version":2,...}             one line per decision
//	<- {"done":true,"samples":64,"decisions":13,...}                 summary, on clean EOF
//	<- {"error":"..."}                                               terminal, on mid-stream failure
//
// Routing follows the assess endpoints (explicit model, else consistent-
// hash on device, else default). A session held on this node pins the
// shard version that accepted it: a hot swap mid-stream never changes such
// a stream's decisions — new streams get the new version. A stream whose
// shard another cluster node owns is stateless there, so each of its
// chunks is answered by the version the owner serves when it lands; every
// result line names the version that produced it. A line's decisions are
// written once the whole line has been applied. Each input line is
// bounded by Config.MaxStreamLineBytes; the body as a whole is unbounded.
func (s *Server) handleAssessStream(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	sc := bufio.NewScanner(r.Body)
	// The scanner's token cap is max(maxTokenSize, cap(buf)), so the
	// initial buffer must not exceed the configured line cap or it would
	// silently raise it.
	initial := 4096
	if initial > s.fleet.cfg.MaxStreamLineBytes {
		initial = s.fleet.cfg.MaxStreamLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), s.fleet.cfg.MaxStreamLineBytes)

	rc := http.NewResponseController(w)
	// An open stream would otherwise pin http.Server.Shutdown until the
	// client hangs up (even a client that never sent its header): when the
	// server begins draining, expire the read so the blocked Scan returns.
	watchdogDone := make(chan struct{})
	watchdogExited := make(chan struct{})
	go func() {
		defer close(watchdogExited)
		select {
		case <-s.draining:
			// Unblock both directions: the handler may be stuck in Scan
			// (idle client) or in a response Write (client that sends but
			// never reads, with TCP backpressure filled). Reads expire
			// immediately; writes get a short grace so a responsive
			// client still receives the closing summary line.
			_ = rc.SetReadDeadline(time.Now())
			_ = rc.SetWriteDeadline(time.Now().Add(drainWriteGrace))
		case <-watchdogDone:
		}
	}()
	defer func() {
		// Stop the watchdog first (so it cannot re-arm a deadline), then
		// clear both deadlines: they are absolute and the daemon sets no
		// Server.WriteTimeout, so without this they would outlive the
		// stream and kill later keep-alive requests on the same
		// connection mid-response.
		close(watchdogDone)
		<-watchdogExited
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
	}()
	drainingNow := func() bool {
		select {
		case <-s.draining:
			return true
		default:
			return false
		}
	}
	// armIdle bounds the wait for the client's next line, so a silent
	// connection cannot pin this goroutine (and its session) forever. The
	// draining re-check after arming mirrors emit's: a drain firing in
	// between must not be overwritten by the longer idle deadline.
	armIdle := func() {
		if s.fleet.cfg.StreamIdleTimeout < 0 {
			return
		}
		_ = rc.SetReadDeadline(time.Now().Add(s.fleet.cfg.StreamIdleTimeout))
		if drainingNow() {
			_ = rc.SetReadDeadline(time.Now())
		}
	}

	// The header line still has the full HTTP status machinery available:
	// reject bad sessions with a proper status + JSON envelope before any
	// streaming byte is written.
	armIdle()
	hdrLine, err := nextLine(sc)
	switch {
	case errors.Is(err, io.EOF):
		writeError(w, http.StatusBadRequest, "missing stream header line")
		return
	case errors.Is(err, bufio.ErrTooLong):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("stream line exceeds %d bytes", s.fleet.cfg.MaxStreamLineBytes))
		return
	case err != nil:
		if drainingNow() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ErrClosed.Error())
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading stream header: %v", err))
		return
	}
	var hdr StreamHeader
	if err := unmarshalStrict(hdrLine, &hdr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad stream header: %v", err))
		return
	}
	// begin commits the 200 and switches to NDJSON framing. HTTP/1.x
	// half-closes the request body on the first response write; this stream
	// writes decisions while states are still arriving, so it needs full
	// duplex (a no-op error on transports that always have it). Full duplex
	// also means net/http no longer consumes an unread request body before
	// the reply, and a handler that returns mid-body (any post-200 failure)
	// trips its keep-alive loop into "invalid concurrent Body.Read call"
	// once the leftover body reaches EOF — so a stream never hands its
	// connection back for reuse.
	begin := func() {
		_ = rc.EnableFullDuplex()
		w.Header().Set("Connection", "close")
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	// Where the stream's session lives is the only thing a cluster changes:
	// held here when this node serves the shard, carried as exported state
	// and shipped chunk by chunk through the hook when another node does.
	// The loop below, and all socket discipline above, is the same for both.
	shard, owner := s.route(r, hdr.Model, hdr.Device)
	cfg := detector.StreamConfig{Levels: hdr.Levels, Window: hdr.Window, Stride: hdr.Stride}
	var sess streamSession
	if owner != nil {
		sess, err = openRemoteStream(owner, shard, hdr.Device, cfg)
	} else {
		sess, err = s.fleet.openStream(shard, hdr.Device, cfg, nil)
	}
	if err != nil {
		var route *routeError
		if errors.As(err, &route) {
			writeResolveError(w, route.err)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	begin()
	emit := s.streamEmitter(w, rc, drainingNow)
	// After the 200 the status is spent; mid-stream failures become a
	// terminal error line in the same envelope shape as ErrorResponse.
	fail := func(msg string) { emit(ErrorResponse{Error: msg}) }

	// summary ends the stream; draining marks a server-initiated cutoff so
	// clients can distinguish "all my telemetry was assessed" from "the
	// server wound me down mid-stream — resume against a fresh stream".
	summary := func(draining bool) {
		model, version, st := sess.totals()
		emit(StreamSummary{
			Done:      true,
			Draining:  draining,
			Model:     model,
			Version:   version,
			Samples:   st.Samples,
			Decisions: st.Total(),
			Benign:    st.Benign,
			Malware:   st.Malware,
			Rejected:  st.Rejected,
		})
	}

	seq := 0
	samples := 0
	for {
		armIdle()
		line, err := nextLine(sc)
		switch {
		case errors.Is(err, io.EOF):
			summary(false)
			return
		case errors.Is(err, bufio.ErrTooLong):
			fail(fmt.Sprintf("stream line exceeds %d bytes", s.fleet.cfg.MaxStreamLineBytes))
			return
		case err != nil:
			if drainingNow() {
				// The watchdog expired the read because the server is
				// shutting down: end the stream cleanly with a summary
				// marked as truncated.
				summary(true)
				return
			}
			// Client disconnects land here; the error line is best-effort.
			fail(fmt.Sprintf("reading stream: %v", err))
			return
		}
		states, err := decodeStreamStates(line)
		if err != nil {
			// Ambiguous or malformed lines are hard errors — the line's
			// intent is unclear, so nothing of it is applied.
			fail(err.Error())
			return
		}
		// A state the header's levels rule out refuses the whole line before
		// either kind of session sees it, so the refusal reads the same on
		// every node and nothing of the line is assessed or stored.
		// Online.Push's own check stays as the defence behind this one.
		if i := slices.IndexFunc(states, func(st int) bool { return st < 0 || st >= hdr.Levels }); i >= 0 {
			fail(fmt.Sprintf("sample %d: state %d outside [0,%d)", samples+i, states[i], hdr.Levels))
			return
		}
		res, err := sess.push(states)
		if err != nil {
			fail(err.Error())
			return
		}
		for _, d := range res.Results {
			seq++
			if !emit(StreamResult{
				Seq:            seq,
				Sample:         samples + d.Offset,
				AssessResponse: toResponse(res.Model, res.Version, d.Result),
			}) {
				// The client stopped reading (or the write deadline hit):
				// abandon the stream rather than wedge on the next write.
				return
			}
		}
		samples += len(states)
	}
}

// streamSession is what the NDJSON loop drives: somewhere to apply a line's
// states, and the totals to close with. The two implementations differ only
// in where the detector.Online lives between lines.
type streamSession interface {
	// push applies one line's states and returns the decisions they
	// completed (Offset counting within the line) with the shard version
	// that made them.
	push(states []int) (StreamPushResult, error)
	// totals is the summary line's content: the stream's running counts
	// and the shard version that answered last.
	totals() (model string, version uint64, st detector.OnlineStats)
}

// localStream is a stream served on this node: a detector.Online pinned
// to the shard version that accepted it, chosen once at accept time, so a
// hot swap mid-stream changes neither its detector nor its accounting.
// One goroutine drives it: the connection's NDJSON loop, or one
// StreamPush.
type localStream struct {
	f      *Fleet
	sh     *shard
	device string
	o      *detector.Online
}

// openStream opens a stream session on the shard model/device resolve to,
// continuing from st when it is non-nil (a proxied chunk, StreamPush) and
// counting a new session when it is nil. Resolve failures come back as
// *routeError; anything else is the caller's header or state being wrong.
func (f *Fleet) openStream(model, device string, cfg detector.StreamConfig, st *detector.SessionState) (*localStream, error) {
	sh, err := f.resolve(model, device)
	if err != nil {
		return nil, &routeError{err}
	}
	if cfg.Window > f.cfg.MaxStreamWindow {
		return nil, fmt.Errorf("window %d exceeds limit %d", cfg.Window, f.cfg.MaxStreamWindow)
	}
	// Fail fast on dimensionality: a Levels value whose windows can never
	// match the model's input — including absurd ones that would size the
	// per-window histogram allocation, an unauthenticated DoS lever — is
	// rejected here instead of after the first full window. The check is
	// arithmetic (levels determines the feature dim); nothing is allocated
	// before it passes.
	if err := sh.det.ValidateStream(cfg); err != nil {
		return nil, err
	}
	o, err := detector.ResumeOnline(sh.det, cfg, st)
	if err != nil {
		return nil, err
	}
	if st == nil {
		sh.stats.streamSessions.Add(1)
	}
	return &localStream{f: f, sh: sh, device: device, o: o}, nil
}

// push is the one place a stream's windows are assessed, counted and
// stored, whether the states came off this node's socket or in a peer's
// StreamPush (which adds the exported State; it is left zero here). It runs
// inside the fleet's in-flight count, so Close waits for its verdicts to be
// stored; once the fleet is closed it refuses the line with ErrClosed. The
// loop has range-checked states, so any other error is an assessment
// failing; what was accepted before it stays counted.
func (l *localStream) push(states []int) (StreamPushResult, error) {
	if !l.f.enter() {
		return StreamPushResult{}, &routeError{ErrClosed}
	}
	defer l.f.calls.Done()
	before := l.o.Stats
	out := StreamPushResult{Model: l.sh.name, Version: l.sh.version}
	defer func() {
		after := l.o.Stats
		l.sh.stats.streamSamples.Add(int64(after.Samples - before.Samples))
		l.sh.stats.streamDecisions.Add(int64(after.Total() - before.Total()))
		// The line's decisions are stored as one group, without features:
		// the stream's extracted window vector is internal, and stream
		// forensics are reconstructible from the raw states client-side.
		if l.f.cfg.Verdicts != nil && len(out.Results) > 0 {
			recs := make([]verdictstore.Record, len(out.Results))
			for i := range out.Results {
				recs[i] = verdictRecord(l.device, "stream", l.sh, &out.Results[i].Result, nil, 0)
			}
			l.f.storeGroup(recs)
		}
	}()
	for i, state := range states {
		res, ok, err := l.o.Push(state)
		if err != nil {
			return StreamPushResult{}, err
		}
		if !ok {
			continue
		}
		l.sh.stats.observeOne(res.Decision)
		out.Results = append(out.Results, StreamPushDecision{Offset: i, Result: res})
	}
	return out, nil
}

// totals reads the stream's own counts, the form a proxied stream's
// exported state carries them in.
func (l *localStream) totals() (string, uint64, detector.OnlineStats) {
	return l.sh.name, l.sh.version, l.o.Stats
}

// remoteStream is a stream whose shard another node serves. The owner holds
// nothing between lines: every push carries the whole exported session
// state and brings back the updated one, which is what lets the hook replay
// a chunk onto a ring successor when the owner dies.
type remoteStream struct {
	hook          ClusterHook
	shard, device string
	cfg           detector.StreamConfig
	last          StreamPushResult
}

// openRemoteStream makes the opening push (no state, no samples): the owner
// checks the header against its model while the HTTP status is still unspent.
func openRemoteStream(hook ClusterHook, shard, device string, cfg detector.StreamConfig) (*remoteStream, error) {
	open, err := hook.PushStream(shard, device, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	return &remoteStream{hook: hook, shard: shard, device: device, cfg: cfg, last: open}, nil
}

func (r *remoteStream) push(states []int) (StreamPushResult, error) {
	res, err := r.hook.PushStream(r.shard, r.device, r.cfg, &r.last.State, states)
	if err == nil {
		r.last = res
	}
	return res, err
}

func (r *remoteStream) totals() (string, uint64, detector.OnlineStats) {
	return r.last.Model, r.last.Version, r.last.State.Stats
}

// decodeStreamStates parses one NDJSON sample line into its states.
func decodeStreamStates(line []byte) ([]int, error) {
	var sample StreamSample
	if err := unmarshalStrict(line, &sample); err != nil {
		return nil, fmt.Errorf("bad stream line: %v", err)
	}
	if sample.State != nil && len(sample.States) > 0 {
		return nil, errors.New(`stream line carries both "state" and "states"`)
	}
	states := sample.States
	if sample.State != nil {
		states = append(states, *sample.State)
	}
	if len(states) == 0 {
		return nil, errors.New(`stream line carries neither "state" nor "states"`)
	}
	return states, nil
}

// streamEmitter builds the stream's response writer: emit reports whether
// the line was written. Every write carries a deadline — a client that
// sends states but never reads its responses would otherwise fill the
// socket buffer and wedge the handler goroutine (and its Online) in
// Write forever; emit failing aborts the stream instead. While draining,
// the tighter grace keeps shutdown snappy.
func (s *Server) streamEmitter(w http.ResponseWriter, rc *http.ResponseController, drainingNow func() bool) func(v any) bool {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v any) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		// Re-check draining AFTER arming the deadline: checking first
		// would let a drain that fires in between leave the long deadline
		// in place and pin shutdown on a non-reading client. With this
		// order every interleaving ends on the short grace — either this
		// re-check sees the drain, or the watchdog's own SetWriteDeadline
		// happens after ours.
		if drainingNow() {
			_ = rc.SetWriteDeadline(time.Now().Add(drainWriteGrace))
		}
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
}

// nextLine returns the next non-blank line, io.EOF at end of stream, or
// the scanner's error (bufio.ErrTooLong for an oversized line).
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// unmarshalStrict decodes one JSON line rejecting unknown fields and
// trailing data, matching the strictness of the non-streaming endpoints:
// two values on one line would otherwise silently drop the second.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
