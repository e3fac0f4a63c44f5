package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"trusthmd/pkg/detector"
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
// window, feature extraction, window memo, trusted decision) through a
// per-connection detector.Session.
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
// hash on device, else default). The session pins the shard version that
// accepted it: a hot swap mid-stream never changes an open stream's
// decisions — new streams get the new version. Each input line is bounded
// by Config.MaxStreamLineBytes; the body as a whole is unbounded.
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
	// In a cluster, a stream whose shard lives on another node is proxied
	// there chunk by chunk; the hook replays the exported session state
	// onto a ring successor if the owner dies, so the stream survives a
	// node kill. All socket discipline (idle deadlines, write deadlines,
	// drain behaviour) stays here, packaged into the StreamConn closures.
	model, owner := s.route(r, hdr.Model, hdr.Device)
	if owner != nil {
		emit := s.streamEmitter(w, rc, drainingNow)
		owner.ProxyStream(&StreamConn{
			Hdr: hdr,
			Next: func() ([]int, error) {
				armIdle()
				line, err := nextLine(sc)
				if errors.Is(err, bufio.ErrTooLong) {
					return nil, &StreamLineError{Msg: fmt.Sprintf(
						"stream line exceeds %d bytes", s.fleet.cfg.MaxStreamLineBytes)}
				}
				if err != nil {
					return nil, err
				}
				return decodeStreamStates(line)
			},
			HTTPError: func(code int, msg string) { writeError(w, code, msg) },
			Begin:     begin,
			Emit:      emit,
			Fail:      func(msg string) { emit(ErrorResponse{Error: msg}) },
			Draining:  drainingNow,
		})
		return
	}
	hdr.Model = model
	g, err := s.fleet.resolve(hdr.Model, hdr.Device)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	// A session pins its home replica the way it pins the shard version: the
	// device's consistent-hash slot (round-robin for device-less streams),
	// chosen once at accept time. Streams run their own per-connection
	// Session rather than the replica's coalescer, so the pin is affinity
	// and accounting — a hot swap mid-stream changes neither.
	sh := g.home(hdr.Device)
	if hdr.Window > s.fleet.cfg.MaxStreamWindow {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("window %d exceeds limit %d", hdr.Window, s.fleet.cfg.MaxStreamWindow))
		return
	}
	cfg := detector.StreamConfig{Levels: hdr.Levels, Window: hdr.Window, Stride: hdr.Stride}
	// Fail fast on dimensionality: a Levels value whose windows can never
	// match the model's input — including absurd ones that would size the
	// per-window histogram allocation, an unauthenticated DoS lever — is
	// rejected here with a 400 instead of an error line after the first
	// full window. The check is arithmetic (levels determines the feature
	// dim); nothing is allocated before it passes.
	if err := sh.det.ValidateStream(cfg); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, err := detector.NewSession(sh.det, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer sess.Close()
	sh.stats.streamSessions.Add(1)

	begin()
	emit := s.streamEmitter(w, rc, drainingNow)
	// After the 200 the status is spent; mid-stream failures become a
	// terminal error line in the same envelope shape as ErrorResponse.
	fail := func(msg string) { emit(ErrorResponse{Error: msg}) }
	defer func() {
		st := sess.Stats()
		sh.stats.streamSamples.Add(int64(st.Samples))
		sh.stats.streamDecisions.Add(int64(st.Decisions))
		sh.stats.streamCacheHits.Add(int64(st.CacheHits))
	}()

	// summary ends the stream; draining marks a server-initiated cutoff so
	// clients can distinguish "all my telemetry was assessed" from "the
	// server wound me down mid-stream — resume against a fresh stream".
	summary := func(draining bool) {
		st := sess.Stats()
		emit(StreamSummary{
			Done:      true,
			Draining:  draining,
			Model:     sh.name,
			Version:   sh.version,
			Samples:   st.Samples,
			Decisions: st.Decisions,
			CacheHits: st.CacheHits,
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
		for _, state := range states {
			res, ok, err := sess.Push(state)
			samples++
			if err != nil {
				fail(fmt.Sprintf("sample %d: %v", samples-1, err))
				return
			}
			if !ok {
				continue
			}
			seq++
			sh.stats.observeOne(res.Decision)
			// Stream verdicts are stored without features: the session's
			// extracted window vector is internal, and stream forensics
			// are reconstructible from the raw states client-side.
			s.fleet.recordVerdict(hdr.Device, "stream", sh.name, sh.version, res, nil, 0)
			if !emit(StreamResult{
				Seq:            seq,
				Sample:         samples - 1,
				AssessResponse: toResponse(sh.name, sh.version, res),
			}) {
				// The client stopped reading (or the write deadline hit):
				// abandon the stream rather than wedge on the next write.
				return
			}
		}
	}
}

// streamEmitter builds the stream's response writer: emit reports whether
// the line was written. Every write carries a deadline — a client that
// sends states but never reads its responses would otherwise fill the
// socket buffer and wedge the handler goroutine (and its Session) in
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
