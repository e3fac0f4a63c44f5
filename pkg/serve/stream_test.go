package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// streamNDJSON posts body to /v1/assess/stream and splits the NDJSON
// answer into results, an optional summary, and an optional error line.
func streamNDJSON(t *testing.T, url, body string) (status int, results []StreamResult, summary *StreamSummary, errLine *ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/assess/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("non-JSON stream line: %s", line)
		}
		switch {
		case probe["error"] != nil:
			errLine = new(ErrorResponse)
			if err := json.Unmarshal(line, errLine); err != nil {
				t.Fatal(err)
			}
		case probe["done"] != nil:
			summary = new(StreamSummary)
			if err := json.Unmarshal(line, summary); err != nil {
				t.Fatal(err)
			}
		default:
			var r StreamResult
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, results, summary, errLine
}

// streamBody renders a header plus one state per line.
func streamBody(hdr StreamHeader, states []int) string {
	var b strings.Builder
	raw, _ := json.Marshal(hdr)
	b.Write(raw)
	b.WriteByte('\n')
	for _, s := range states {
		fmt.Fprintf(&b, "{\"state\":%d}\n", s)
	}
	return b.String()
}

// TestStreamMatchesOnlinePush is the streaming acceptance e2e: NDJSON
// assessments streamed through /v1/assess/stream must be element-wise
// identical to driving detector.Online.Push directly with the same state
// sequence.
func TestStreamMatchesOnlinePush(t *testing.T) {
	d, _ := testDetector(t)
	s, ts := newTestServer(t, Config{})

	const levels, window, stride = 8, 16, 4
	rng := rand.New(rand.NewSource(3))
	states := make([]int, 300)
	for i := range states {
		states[i] = rng.Intn(levels)
	}

	online, err := detector.NewOnline(d, detector.StreamConfig{Levels: levels, Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		res    detector.Result
		sample int
	}
	var want []ref
	for i, st := range states {
		r, ok, err := online.Push(st)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, ref{res: r, sample: i})
		}
	}
	if len(want) == 0 {
		t.Fatal("reference stream produced no decisions")
	}

	status, got, summary, errLine := streamNDJSON(t, ts.URL,
		streamBody(StreamHeader{Levels: levels, Window: window, Stride: stride}, states))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if errLine != nil {
		t.Fatalf("stream errored: %s", errLine.Error)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d decisions, direct Online.Push produced %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Seq != i+1 || g.Sample != w.sample {
			t.Fatalf("decision %d: seq=%d sample=%d, want seq=%d sample=%d", i, g.Seq, g.Sample, i+1, w.sample)
		}
		if g.Prediction != w.res.Prediction || g.Entropy != w.res.Entropy || g.Decision != w.res.Decision.String() {
			t.Fatalf("decision %d diverged from Online.Push:\n got %+v\nwant %+v", i, g, w.res)
		}
		if len(g.VoteDist) != len(w.res.VoteDist) {
			t.Fatalf("decision %d: vote dist length %d vs %d", i, len(g.VoteDist), len(w.res.VoteDist))
		}
		for j := range g.VoteDist {
			if g.VoteDist[j] != w.res.VoteDist[j] {
				t.Fatalf("decision %d: vote dist diverged at %d", i, j)
			}
		}
		if g.Model != "dvfs-rf" || g.Version != 1 {
			t.Fatalf("decision %d: model/version %q/%d", i, g.Model, g.Version)
		}
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	if summary.Samples != len(states) || summary.Decisions != len(want) {
		t.Fatalf("summary %+v, want %d samples / %d decisions", summary, len(states), len(want))
	}
	if summary.Benign != online.Stats.Benign || summary.Malware != online.Stats.Malware || summary.Rejected != online.Stats.Rejected {
		t.Fatalf("summary decision split %+v, online detector's %+v", summary, online.Stats)
	}

	// The session's activity lands in the shard's /stats counters.
	st := s.Fleet().Stats()[0]
	if st.StreamSessions != 1 || st.StreamSamples != int64(len(states)) || st.StreamDecisions != int64(len(want)) {
		t.Fatalf("stream counters: %+v", st)
	}
	if st.Benign+st.Malware+st.Rejected != len(want) {
		t.Fatalf("stream decisions missing from the shard tally: %+v", st)
	}
}

// TestStreamChunkedStates pins the {"states":[...]} chunk form: chunked
// and one-per-line delivery produce identical decisions.
func TestStreamChunkedStates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const levels, window = 8, 16
	rng := rand.New(rand.NewSource(5))
	states := make([]int, 96)
	for i := range states {
		states[i] = rng.Intn(levels)
	}

	_, perLine, _, errLine := streamNDJSON(t, ts.URL,
		streamBody(StreamHeader{Levels: levels, Window: window}, states))
	if errLine != nil {
		t.Fatalf("per-line stream errored: %s", errLine.Error)
	}

	var b strings.Builder
	hdrRaw, _ := json.Marshal(StreamHeader{Levels: levels, Window: window})
	b.Write(hdrRaw)
	b.WriteByte('\n')
	for i := 0; i < len(states); i += 24 {
		chunk, _ := json.Marshal(StreamSample{States: states[i : i+24]})
		b.Write(chunk)
		b.WriteByte('\n')
	}
	status, chunked, summary, errLine := streamNDJSON(t, ts.URL, b.String())
	if status != http.StatusOK || errLine != nil {
		t.Fatalf("chunked stream: status %d, err %v", status, errLine)
	}
	if len(chunked) != len(perLine) {
		t.Fatalf("chunked %d decisions, per-line %d", len(chunked), len(perLine))
	}
	for i := range chunked {
		if chunked[i].Entropy != perLine[i].Entropy || chunked[i].Sample != perLine[i].Sample {
			t.Fatalf("decision %d diverged between chunked and per-line delivery", i)
		}
	}
	if summary == nil || summary.Samples != len(states) {
		t.Fatalf("summary: %+v", summary)
	}
}

// TestStreamVerdictsStored streams a fixed trace in chunked lines through
// a store-backed server: the store holds one record per emitted decision,
// in order, bit-equal to its NDJSON line, tagged "stream" and without
// features, and each input line's decisions are one group — contiguous
// sequence numbers under one clock reading.
func TestStreamVerdictsStored(t *testing.T) {
	_, ts, store := newLoopServer(t)
	const levels, window, stride, chunk = 8, 16, 4, 25
	rng := rand.New(rand.NewSource(11))
	states := make([]int, 300)
	for i := range states {
		states[i] = rng.Intn(levels)
	}
	var b strings.Builder
	hdrRaw, _ := json.Marshal(StreamHeader{Device: "dev-s", Levels: levels, Window: window, Stride: stride})
	b.Write(hdrRaw)
	b.WriteByte('\n')
	for i := 0; i < len(states); i += chunk {
		line, _ := json.Marshal(StreamSample{States: states[i : i+chunk]})
		b.Write(line)
		b.WriteByte('\n')
	}
	status, got, _, errLine := streamNDJSON(t, ts.URL, b.String())
	if status != http.StatusOK || errLine != nil {
		t.Fatalf("stream: status %d, err %v", status, errLine)
	}
	if len(got) == 0 {
		t.Fatal("the trace produced no decisions")
	}

	recs, err := store.Query(verdictstore.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(got) {
		t.Fatalf("stored %d verdicts, streamed %d", len(recs), len(got))
	}
	lines := 0
	for i, rec := range recs {
		g := got[i]
		if rec.Source != "stream" || rec.Device != "dev-s" || rec.Features != nil ||
			rec.Model != g.Model || rec.Version != g.Version {
			t.Fatalf("verdict %d provenance: %+v", i, rec)
		}
		if rec.Prediction != g.Prediction || rec.Decision != g.Decision ||
			math.Float64bits(rec.Entropy) != math.Float64bits(g.Entropy) || !sameFloats(rec.Votes, g.VoteDist) {
			t.Fatalf("verdict %d diverged from its NDJSON line:\n got %+v\nwant %+v", i, rec, g)
		}
		if i == 0 || g.Sample/chunk != got[i-1].Sample/chunk {
			lines++
			continue
		}
		if prev := recs[i-1]; rec.Seq != prev.Seq+1 || !rec.Time.Equal(prev.Time) {
			t.Fatalf("line %d: seq %d at %v follows seq %d at %v", g.Sample/chunk, rec.Seq, rec.Time, prev.Seq, prev.Time)
		}
	}
	if lines == len(recs) {
		t.Fatal("every line made one decision at most; the test needs lines with several")
	}
}

// TestStreamErrorPaths covers the serve error paths of the new endpoint:
// missing/oversized/malformed headers, unknown models, invalid stream
// lines and out-of-range states.
func TestStreamErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStreamLineBytes: 512, MaxStreamWindow: 64})

	t.Run("missing header", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, "")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("oversized header line", func(t *testing.T) {
		// MaxBytes behaviour before the 200 is committed: a proper 413
		// with the JSON envelope, not a stream error line.
		status, _, _, _ := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16,"device":"`+strings.Repeat("x", 600)+`"}`+"\n")
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", status)
		}
	})
	t.Run("bad header json", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, "not json\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("unknown header field", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"levels":8,"window":16,"nope":1}`+"\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("unknown model", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"model":"ghost","levels":8,"window":16}`+"\n")
		if status != http.StatusNotFound {
			t.Fatalf("status %d, want 404", status)
		}
	})
	t.Run("levels above model input dim", func(t *testing.T) {
		// The residency histogram is sized by levels, so unchecked levels
		// would be an unauthenticated allocation lever; anything beyond
		// the shard's input dim can never assess and is rejected up front.
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"levels":1000000000,"window":16}`+"\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("levels mismatching feature dim", func(t *testing.T) {
		// levels=4 passes the allocation cap (4 <= input dim 17) but a
		// (4, 16) window yields 13 features, not 17 — rejected with a 400
		// at the header instead of an error line after the first window.
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"levels":4,"window":16}`+"\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("trailing data on a line", func(t *testing.T) {
		_, _, _, errLine := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16}`+"\n"+`{"state":1}{"state":2}`+"\n")
		if errLine == nil || !strings.Contains(errLine.Error, "trailing data") {
			t.Fatalf("two values on one line must be rejected, got %+v", errLine)
		}
	})
	t.Run("window above cap", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"levels":8,"window":128}`+"\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("invalid online config", func(t *testing.T) {
		status, _, _, _ := streamNDJSON(t, ts.URL, `{"levels":1,"window":16}`+"\n")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("oversized mid-stream line", func(t *testing.T) {
		// Past the header the 200 is already on the wire; MaxBytes
		// behaviour becomes a terminal error line naming the cap.
		body := `{"levels":8,"window":16}` + "\n" +
			`{"state":1}` + "\n" +
			`{"states":[` + strings.Repeat("1,", 400) + `1]}` + "\n"
		status, _, summary, errLine := streamNDJSON(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("status %d (the 200 was committed before the bad line)", status)
		}
		if errLine == nil || !strings.Contains(errLine.Error, "exceeds 512 bytes") {
			t.Fatalf("expected line-cap error line, got %+v", errLine)
		}
		if summary != nil {
			t.Fatal("errored stream must not emit a summary")
		}
	})
	t.Run("bad sample line", func(t *testing.T) {
		_, _, summary, errLine := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16}`+"\n"+`{"nope":1}`+"\n")
		if errLine == nil {
			t.Fatalf("expected error line, summary %+v", summary)
		}
	})
	t.Run("both state and states", func(t *testing.T) {
		_, _, _, errLine := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16}`+"\n"+`{"state":1,"states":[2,3]}`+"\n")
		if errLine == nil || !strings.Contains(errLine.Error, "both") {
			t.Fatalf("ambiguous sample line must be rejected, got %+v", errLine)
		}
	})
	t.Run("empty sample line", func(t *testing.T) {
		_, _, _, errLine := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16}`+"\n"+`{}`+"\n")
		if errLine == nil || !strings.Contains(errLine.Error, `"state"`) {
			t.Fatalf("expected neither-state-nor-states error, got %+v", errLine)
		}
	})
	t.Run("out of range state", func(t *testing.T) {
		_, _, _, errLine := streamNDJSON(t, ts.URL,
			`{"levels":8,"window":16}`+"\n"+`{"state":9}`+"\n")
		if errLine == nil || !strings.Contains(errLine.Error, "sample 0") {
			t.Fatalf("expected per-sample error, got %+v", errLine)
		}
	})
	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/assess/stream")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow header %q", allow)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("non-JSON 405 body: %s", body)
		}
	})
}

// TestStreamErrorPathsUnreadBody is the regression test for a stream that
// fails after its 200 with request body still on the way. The handler runs
// full duplex, so net/http leaves the unread body alone until the handler
// has returned; when that leftover body then reached EOF the server's
// keep-alive loop panicked with "invalid concurrent Body.Read call" (the
// 1-in-10 flake of TestStreamErrorPaths/bad_sample_line, deterministic
// here because the client holds the tail of its body back until it has the
// whole response). The connection must end without a server-side panic.
func TestStreamErrorPathsUnreadBody(t *testing.T) {
	d, _ := testDetector(t)
	s := mustServer(t, map[string]*detector.Detector{"dvfs-rf": d}, Config{})
	defer s.Close()
	var serverLog syncBuffer
	connClosed := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			connClosed <- struct{}{}
		}
	}
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := `{"levels":8,"window":16}` + "\n" + `{"nope":1}` + "\n"
	tail := `{"state":1}` + "\n"
	if _, err := fmt.Fprintf(conn, "POST /v1/assess/stream HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s",
		len(head)+len(tail), head); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the failed stream's response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"error"`) {
		t.Fatalf("status %d, body %s: want a 200 ending in an error line", resp.StatusCode, body)
	}
	// The handler has returned; only now does the rest of the body arrive.
	if _, err := io.WriteString(conn, tail); err != nil {
		t.Fatal(err)
	}
	select {
	case <-connClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never finished with the connection")
	}
	if logged := serverLog.String(); strings.Contains(logged, "panic") {
		t.Fatalf("server panicked on the leftover body:\n%s", logged)
	}
}

// syncBuffer is a bytes.Buffer safe to write from the server's goroutines
// and read from the test's.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamDrainEndsOpenStreams: BeginDrain must wind down a stream whose
// client is idle but connected — the open stream gets its summary line and
// the handler returns, so http.Server.Shutdown is not pinned until the
// client hangs up.
func TestStreamDrainEndsOpenStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assess/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	// Do blocks until response headers arrive, which the server sends only
	// after reading the stream header — so the request/read loop runs in a
	// goroutine while this goroutine feeds the pipe.
	errc := make(chan error, 1)
	lines := make(chan string, 64)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		errc <- sc.Err()
	}()

	// Header plus a few states, then the client goes idle without EOF.
	if _, err := io.WriteString(pw, `{"levels":8,"window":16}`+"\n"+`{"states":[0,1,2,3]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler consume the states

	s.BeginDrain()
	deadline := time.After(5 * time.Second)
	var summary *StreamSummary
	for summary == nil {
		select {
		case line := <-lines:
			var probe map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				t.Fatalf("bad line: %s", line)
			}
			if probe["error"] != nil {
				t.Fatalf("drain produced an error line: %s", line)
			}
			if probe["done"] != nil {
				summary = new(StreamSummary)
				if err := json.Unmarshal([]byte(line), summary); err != nil {
					t.Fatal(err)
				}
			}
		case err := <-errc:
			t.Fatalf("stream ended without summary: %v", err)
		case <-deadline:
			t.Fatal("drain did not end the open stream")
		}
	}
	if summary.Samples != 4 {
		t.Fatalf("summary samples %d, want 4", summary.Samples)
	}
	if !summary.Draining {
		t.Fatalf("server-initiated cutoff must be marked draining: %+v", summary)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatalf("reading drained stream: %v", err)
	}
}

// TestStreamIdleTimeout: a client that opens a stream and goes silent must
// not pin the handler goroutine forever — the idle deadline ends the
// stream with a terminal error line.
func TestStreamIdleTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamIdleTimeout: 100 * time.Millisecond})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assess/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var errLine *ErrorResponse
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				done <- fmt.Errorf("bad line: %s", sc.Bytes())
				return
			}
			if probe["error"] != nil {
				errLine = new(ErrorResponse)
				_ = json.Unmarshal(sc.Bytes(), errLine)
			}
		}
		done <- sc.Err()
	}()

	// Header + one state, then silence (no EOF): the server must cut the
	// stream on its own within the idle budget.
	if _, err := io.WriteString(pw, `{"levels":8,"window":16}`+"\n"+`{"state":1}`+"\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reading idle-timed-out stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle stream was never cut")
	}
	if errLine == nil {
		t.Fatal("idle cutoff should surface as a terminal error line")
	}
	pw.Close()
}

// TestStreamPinsShardAcrossMidStreamSwap holds one stream OPEN across a
// hot swap: decisions emitted after the swap must still come from the
// shard version that accepted the session (matching direct Online.Push on
// the original detector, element-wise), while a stream opened afterwards
// gets the new version.
func TestStreamPinsShardAcrossMidStreamSwap(t *testing.T) {
	d, _ := testDetector(t)
	s, ts := newTestServer(t, Config{})
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}

	const levels, window = 8, 16
	rng := rand.New(rand.NewSource(17))
	states := make([]int, 64)
	for i := range states {
		states[i] = rng.Intn(levels)
	}
	online, err := detector.NewOnline(d, detector.StreamConfig{Levels: levels, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var want []detector.Result
	for _, st := range states {
		r, ok, err := online.Push(st)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, r)
		}
	}
	if len(want) != 4 {
		t.Fatalf("reference produced %d decisions, want 4", len(want))
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assess/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	results := make(chan StreamResult, 16)
	summaryCh := make(chan StreamSummary, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				done <- fmt.Errorf("bad line: %s", sc.Bytes())
				return
			}
			switch {
			case probe["error"] != nil:
				done <- fmt.Errorf("stream error: %s", sc.Bytes())
				return
			case probe["done"] != nil:
				var sum StreamSummary
				if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
					done <- err
					return
				}
				summaryCh <- sum
			default:
				var r StreamResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					done <- err
					return
				}
				results <- r
			}
		}
		done <- sc.Err()
	}()

	send := func(chunk []int) {
		t.Helper()
		raw, _ := json.Marshal(StreamSample{States: chunk})
		if _, err := pw.Write(append(raw, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() StreamResult {
		t.Helper()
		select {
		case r := <-results:
			return r
		case err := <-done:
			t.Fatalf("stream ended early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a decision")
		}
		panic("unreachable")
	}

	if _, err := io.WriteString(pw, `{"levels":8,"window":16}`+"\n"); err != nil {
		t.Fatal(err)
	}
	// First half on v1.
	send(states[:32])
	var got []StreamResult
	for len(got) < 2 {
		got = append(got, recv())
	}

	// Swap while the stream is OPEN, then push the second half.
	if _, err := s.Fleet().Swap("dvfs-rf", strict, "swap"); err != nil {
		t.Fatal(err)
	}
	send(states[32:])
	for len(got) < 4 {
		got = append(got, recv())
	}
	pw.Close()

	for i, g := range got {
		if g.Version != 1 {
			t.Fatalf("decision %d after mid-stream swap carries version %d — session must pin v1", i, g.Version)
		}
		if g.Prediction != want[i].Prediction || g.Entropy != want[i].Entropy || g.Decision != want[i].Decision.String() {
			t.Fatalf("decision %d diverged from the pinned detector:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
	select {
	case sum := <-summaryCh:
		if sum.Version != 1 || sum.Decisions != 4 {
			t.Fatalf("pinned stream summary: %+v", sum)
		}
	case err := <-done:
		t.Fatalf("no summary: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for summary")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A stream opened after the swap serves the new version.
	_, fresh, sum, errLine := streamNDJSON(t, ts.URL, streamBody(StreamHeader{Levels: levels, Window: window}, states[:32]))
	if errLine != nil || sum == nil || sum.Version != 2 {
		t.Fatalf("post-swap stream: err=%v summary=%+v", errLine, sum)
	}
	if len(fresh) == 0 || fresh[0].Version != 2 {
		t.Fatalf("post-swap stream results: %+v", fresh)
	}
}

// TestStreamSessionPinsVersion: a hot swap mid-stream never changes an
// open stream's decisions — the session drains on the version that
// accepted it, while new streams (and the summary of a post-swap stream)
// see the new version.
func TestStreamSessionPinsVersion(t *testing.T) {
	d, _ := testDetector(t)
	s, ts := newTestServer(t, Config{})
	const levels, window = 8, 16
	rng := rand.New(rand.NewSource(9))
	states := make([]int, 64)
	for i := range states {
		states[i] = rng.Intn(levels)
	}

	// First stream on v1.
	_, got, summary, errLine := streamNDJSON(t, ts.URL,
		streamBody(StreamHeader{Levels: levels, Window: window}, states))
	if errLine != nil || summary == nil || summary.Version != 1 {
		t.Fatalf("v1 stream: err=%v summary=%+v", errLine, summary)
	}
	if len(got) == 0 || got[0].Version != 1 {
		t.Fatalf("v1 stream results: %+v", got)
	}

	// Swap, then stream again: the new session reports v2.
	if _, err := s.Fleet().Swap("dvfs-rf", d, "swap"); err != nil {
		t.Fatal(err)
	}
	_, got, summary, errLine = streamNDJSON(t, ts.URL,
		streamBody(StreamHeader{Levels: levels, Window: window}, states))
	if errLine != nil || summary == nil || summary.Version != 2 {
		t.Fatalf("v2 stream: err=%v summary=%+v", errLine, summary)
	}
	if len(got) == 0 || got[0].Version != 2 {
		t.Fatalf("v2 stream results: %+v", got)
	}
}

// ownerHook is a ClusterHook that places every stream on another fleet: its
// PushStream is that fleet's StreamPush, which is what the cluster agent
// does once it has picked a node.
type ownerHook struct {
	routeHook
	owner *Fleet
}

// ResolveAssess keeps a model the request names, the way the agent does, so
// an unknown one reaches the owner and is refused there.
func (h *ownerHook) ResolveAssess(r *http.Request, model, device string) (string, bool) {
	if model == "" {
		model = h.shard
	}
	return model, false
}

func (h *ownerHook) PushStream(shard, device string, cfg detector.StreamConfig, st *detector.SessionState, states []int) (StreamPushResult, error) {
	return h.owner.StreamPush(shard, device, cfg, st, states)
}

// TestStreamLocalAndRemoteLinesIdentical holds the two stream sessions to
// one another: the same request body sent to a fleet that serves the stream
// itself and to a server that proxies every chunk to a second fleet over
// the same detector must come back as the same NDJSON bytes — seq, sample,
// model, version, every verdict field, the summary's counts and the error
// text — and leave the same stream counters on the fleet that assessed.
// Nothing is scrubbed: an exported SessionState is the stream's whole
// state, so the owner rebuilding a proxied stream from it on every chunk
// answers exactly as a session that stays put.
func TestStreamLocalAndRemoteLinesIdentical(t *testing.T) {
	d, _ := testDetector(t)
	cfg := Config{MaxStreamLineBytes: 512}
	models := map[string]*detector.Detector{"dvfs-rf": d}
	local := mustServer(t, models, cfg)
	defer local.Close()
	owner := mustServer(t, models, cfg)
	defer owner.Close()
	entry := mustServer(t, models, cfg)
	defer entry.Close()
	entry.AttachCluster(&ownerHook{routeHook: routeHook{shard: "dvfs-rf"}, owner: owner.Fleet()})
	localTS, entryTS := httptest.NewServer(local), httptest.NewServer(entry)
	defer localTS.Close()
	defer entryTS.Close()

	const header = `{"device":"host-7","levels":8,"window":16,"stride":4}` + "\n"
	rng := rand.New(rand.NewSource(7))
	chunk := func(n int) string {
		states := make([]int, n)
		for i := range states {
			states[i] = rng.Intn(8)
		}
		raw, _ := json.Marshal(StreamSample{States: states})
		return string(raw) + "\n"
	}
	singles := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "{\"state\":%d}\n", rng.Intn(8))
		}
		return b.String()
	}
	cases := []struct {
		name, body string
		lines      int
		lastLine   string // "" when the last line is a summary
	}{
		{name: "header only, clean EOF", body: header, lines: 1},
		{name: "single states", body: header + singles(40), lines: 8},
		{name: "chunks", body: header + chunk(16) + chunk(32), lines: 10},
		// Windows complete at samples 15, 19, 23, …: the second and third
		// lines each finish a window the line before them started.
		{name: "chunks straddling window boundaries", body: header + chunk(14) + chunk(3) + singles(2) + chunk(9), lines: 5},
		{name: "singles and chunks mixed, blank lines", body: header + singles(5) + "\n" + chunk(21) + "\n\n" + singles(3), lines: 5},
		{name: "refused chunk", body: header + chunk(20) + `{"states":[1,2,3,4,99]}` + "\n" + chunk(8), lines: 3,
			lastLine: `{"error":"sample 24: state 99 outside [0,8)"}`},
		{name: "refused negative state", body: header + singles(17) + `{"state":-1}` + "\n", lines: 2,
			lastLine: `{"error":"sample 17: state -1 outside [0,8)"}`},
		{name: "oversized line", body: header + chunk(16) + `{"states":[` + strings.Repeat("1,", 400) + `1]}` + "\n", lines: 2,
			lastLine: `{"error":"stream line exceeds 512 bytes"}`},
		{name: "state and states", body: header + chunk(16) + `{"state":1,"states":[2]}` + "\n", lines: 2,
			lastLine: `{"error":"stream line carries both \"state\" and \"states\""}`},
		{name: "malformed line", body: header + singles(16) + "{nope}\n", lines: 2},
	}
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/assess/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, want := post(localTS.URL, tc.body)
			gotStatus, got := post(entryTS.URL, tc.body)
			if wantStatus != http.StatusOK || gotStatus != wantStatus {
				t.Fatalf("status: local %d, proxied %d", wantStatus, gotStatus)
			}
			if got != want {
				t.Fatalf("proxied stream differs from local\nlocal:\n%s\nproxied:\n%s", want, got)
			}
			lines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
			if len(lines) != tc.lines {
				t.Fatalf("%d lines, want %d:\n%s", len(lines), tc.lines, want)
			}
			last := lines[len(lines)-1]
			switch {
			case tc.lastLine != "" && last != tc.lastLine:
				t.Fatalf("last line %s, want %s", last, tc.lastLine)
			case tc.lastLine == "" && tc.name != "malformed line" && !strings.HasPrefix(last, `{"done":true,`):
				t.Fatalf("last line %s, want a summary", last)
			}
		})
	}

	// A refused open is refused the same way: nothing streamed, same status.
	for _, hdr := range []string{
		`{"model":"ghost","levels":8,"window":16}`,
		`{"levels":4,"window":16}`,
		`{"levels":8,"window":1000000}`,
	} {
		wantStatus, want := post(localTS.URL, hdr+"\n")
		gotStatus, got := post(entryTS.URL, hdr+"\n")
		if gotStatus != wantStatus || got != want || wantStatus == http.StatusOK {
			t.Fatalf("header %s: local %d %s, proxied %d %s", hdr, wantStatus, want, gotStatus, got)
		}
	}

	// The fleet that assessed counted the same sessions, samples and
	// decisions either way, and the entry node counted none.
	counters := func(s *Server) [3]int64 {
		var c [3]int64
		for _, st := range s.Fleet().Stats() {
			c[0] += st.StreamSessions
			c[1] += st.StreamSamples
			c[2] += st.StreamDecisions
		}
		return c
	}
	if l, o := counters(local), counters(owner); l != o || l[2] == 0 {
		t.Fatalf("stream sessions/samples/decisions: local %v, owner behind the proxy %v", l, o)
	}
	if e := counters(entry); e != [3]int64{} {
		t.Fatalf("entry node counted stream work it only proxied: %v", e)
	}
}

// FuzzDecodeStreamStates holds the NDJSON sample-line decoder to
// encoding/json. A line is accepted exactly when its first JSON value
// unmarshals into a StreamSample, has no key but "state" and "states"
// (matched case-insensitively, as encoding/json matches field names),
// carries exactly one of a state and a non-empty states list, and is
// followed by nothing but whitespace — or by a '}' or ']', which
// Decoder.More waves through on every JSON endpoint (see checkTrailing).
// The accepted states are that decode's.
func FuzzDecodeStreamStates(f *testing.F) {
	// The line shapes TestStreamLocalAndRemoteLinesIdentical sends.
	for _, line := range []string{
		`{"state":3}`,
		`{"states":[0,7,1,4,4,2]}`,
		`{"states":[1,2,3,4,99]}`,
		`{"state":-1}`,
		`{"states":[` + strings.Repeat("1,", 400) + `1]}`,
		`{"state":1,"states":[2]}`,
		`{nope}`,
		// The edges of the one-of rule, field-name folding and More.
		`{"state":1,"states":[]}`,
		`{"STATE":2}`,
		`{"state":1}}`,
		`{"state":1} 2`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := decodeStreamStates(line)

		var raw json.RawMessage
		dec := json.NewDecoder(bytes.NewReader(line))
		ok := dec.Decode(&raw) == nil
		if ok {
			rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n")
			ok = len(rest) == 0 || rest[0] == '}' || rest[0] == ']'
		}
		var sample StreamSample
		var keys map[string]json.RawMessage
		ok = ok && json.Unmarshal(raw, &sample) == nil && json.Unmarshal(raw, &keys) == nil
		for k := range keys {
			ok = ok && (strings.EqualFold(k, "state") || strings.EqualFold(k, "states"))
		}
		ok = ok && (sample.State != nil) != (len(sample.States) > 0)

		if (err == nil) != ok {
			t.Fatalf("line %q: err %v, want accepted %v", line, err, ok)
		}
		if !ok {
			return
		}
		want := sample.States
		if sample.State != nil {
			want = []int{*sample.State}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("line %q: states %v, want %v", line, got, want)
		}
	})
}
