package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// pushTarget is the daemon's serving stack behind httptest: a one-shard
// fleet that taps every verdict into a fresh store. While fail is set and
// returns true, it has answered a request in the server's place.
type pushTarget struct {
	url   string
	det   *detector.Detector
	rows  [][]float64
	store *verdictstore.Store
	posts atomic.Int64
	fail  func(w http.ResponseWriter, r *http.Request) bool
}

func newPushTarget(t *testing.T) *pushTarget {
	t.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 60})
	if err != nil {
		t.Fatal(err)
	}
	det, err := detector.New(s.Train, detector.WithModel("rf"), detector.WithEnsembleSize(7), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	pt := &pushTarget{det: det}
	for i := 0; i < s.Test.Len(); i++ {
		pt.rows = append(pt.rows, s.Test.At(i).Features)
	}
	for i := 0; i < s.Unknown.Len(); i++ {
		pt.rows = append(pt.rows, s.Unknown.At(i).Features)
	}
	if pt.store, err = verdictstore.Open(t.TempDir(), verdictstore.Config{}); err != nil {
		t.Fatal(err)
	}
	fleet, err := serve.NewFleet(map[string]*detector.Detector{"dvfs": det}, serve.Config{Verdicts: pt.store})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pt.posts.Add(1)
		if pt.fail != nil && pt.fail(w, r) {
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pt.store.Close()
	})
	pt.url = ts.URL
	return pt
}

// records returns everything the target's store holds, oldest first.
func (pt *pushTarget) records(t *testing.T) []verdictstore.Record {
	t.Helper()
	recs, err := pt.store.Query(verdictstore.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// pass runs one push over dir and returns the lines it logged.
func (pt *pushTarget) pass(t *testing.T, dir string) ([]string, error) {
	t.Helper()
	var logged []string
	err := push(dir, pt.url, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	return logged, err
}

// dropLine is one drop line for device, every feature written so that it
// reads back bit for bit.
func dropLine(device string, x []float64) string {
	var b strings.Builder
	b.WriteString(device)
	for _, v := range x {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte('\n')
	return b.String()
}

type dropRow struct {
	device string
	x      []float64
}

// writeDrop writes a drop file whose mtime is base+age, so the pass order
// does not hang on the file system's timestamp resolution.
func writeDrop(t *testing.T, dir, name, content string, age time.Duration) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Unix(1_700_000_000, 0).Add(age)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// checkDelivered asserts the store holds exactly the rows, in order, each
// from /v1/assess/batch and bit-identical to assessing them directly.
func (pt *pushTarget) checkDelivered(t *testing.T, rows []dropRow) {
	t.Helper()
	xs := make([][]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.x
	}
	want, err := pt.det.AssessBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	recs := pt.records(t)
	if len(recs) != len(rows) {
		t.Fatalf("store holds %d records, want one per row: %d", len(recs), len(rows))
	}
	for i, rec := range recs {
		w := want[i]
		if rec.Source != "batch" || rec.Device != rows[i].device {
			t.Fatalf("record %d: source %q device %q, want batch/%s", i, rec.Source, rec.Device, rows[i].device)
		}
		if rec.Prediction != w.Prediction || rec.Decision != w.Decision.String() ||
			math.Float64bits(rec.Entropy) != math.Float64bits(w.Entropy) || len(rec.Votes) != len(w.VoteDist) {
			t.Fatalf("record %d diverged from AssessBatch:\n got %+v\nwant %+v", i, rec, w)
		}
		for k := range rec.Votes {
			if math.Float64bits(rec.Votes[k]) != math.Float64bits(w.VoteDist[k]) {
				t.Fatalf("record %d vote %d: %v, want %v", i, k, rec.Votes[k], w.VoteDist[k])
			}
		}
	}
}

// TestPushDeliversEveryRowOnce: every drop line lands in the store once,
// in file order, each run of one device's lines cut into batches of at
// most 64 rows; a second pass posts nothing.
func TestPushDeliversEveryRowOnce(t *testing.T) {
	pt := newPushTarget(t)
	dir := t.TempDir()
	var rows []dropRow
	var a, b strings.Builder
	a.WriteString("# comment\n")
	for i := 0; i < 70; i++ { // 64 + 6
		rows = append(rows, dropRow{"edge-1", pt.rows[i]})
		a.WriteString(dropLine("edge-1", pt.rows[i]))
	}
	a.WriteString("\n")
	for i := 70; i < 80; i++ {
		rows = append(rows, dropRow{"edge-2", pt.rows[i]})
		a.WriteString(dropLine("edge-2", pt.rows[i]))
	}
	for i := 80; i < 85; i++ {
		rows = append(rows, dropRow{"edge-1", pt.rows[i]})
		b.WriteString(dropLine("edge-1", pt.rows[i]))
	}
	// b.csv sorts first by name but was dropped later: mtime decides.
	writeDrop(t, dir, "b.csv", b.String(), time.Second)
	writeDrop(t, dir, "a.csv", a.String(), 0)
	writeDrop(t, dir, "ignore.txt", "not,a,drop\n", 0)

	if _, err := pt.pass(t, dir); err != nil {
		t.Fatal(err)
	}
	if got := pt.posts.Load(); got != 4 {
		t.Fatalf("%d batches posted, want 4 (64+6 edge-1, 10 edge-2, then b.csv's 5)", got)
	}
	pt.checkDelivered(t, rows)

	if _, err := pt.pass(t, dir); err != nil {
		t.Fatal(err)
	}
	if got := pt.posts.Load(); got != 4 {
		t.Fatalf("second pass posted %d batches, want none", got-4)
	}
	pt.checkDelivered(t, rows)
}

// TestPushJournalSurvivesRestart: the journal is the only state between
// passes. A delivered drop is skipped, a rewritten one is new telemetry,
// and a journal the daemon's former in-process poller wrote carries over.
func TestPushJournalSurvivesRestart(t *testing.T) {
	pt := newPushTarget(t)
	dir := t.TempDir()
	writeDrop(t, dir, "a.csv", dropLine("edge-1", pt.rows[0]), 0)
	if _, err := pt.pass(t, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.pass(t, dir); err != nil {
		t.Fatal(err)
	}
	if got := len(pt.records(t)); got != 1 {
		t.Fatalf("two passes stored %d records, want 1", got)
	}
	writeDrop(t, dir, "a.csv", dropLine("edge-1", pt.rows[0])+dropLine("edge-1", pt.rows[1]), 0)
	if _, err := pt.pass(t, dir); err != nil {
		t.Fatal(err)
	}
	pt.checkDelivered(t, []dropRow{{"edge-1", pt.rows[0]}, {"edge-1", pt.rows[0]}, {"edge-1", pt.rows[1]}})

	old := t.TempDir()
	content := dropLine("edge-1", pt.rows[2])
	writeDrop(t, old, "a.csv", content, 0)
	ledger := fmt.Sprintf(`{"a.csv":{"size":%d,"mtime_ns":%d}}`, len(content), time.Unix(1_700_000_000, 0).UnixNano())
	if err := os.WriteFile(filepath.Join(old, journalName), []byte(ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	posts := pt.posts.Load()
	if _, err := pt.pass(t, old); err != nil {
		t.Fatal(err)
	}
	if got := pt.posts.Load(); got != posts {
		t.Fatalf("a drop in the carried-over journal was posted again (%d batches)", got-posts)
	}
}

// TestPushMalformedDropJournaledNotRetried: a drop that cannot be
// delivered as written — a bad number, NaN, Inf, or a batch the daemon
// refuses with a 4xx — is logged once and journaled; the files around it
// are delivered, and the next pass neither logs nor posts.
func TestPushMalformedDropJournaledNotRetried(t *testing.T) {
	pt := newPushTarget(t)
	dir := t.TempDir()
	good := dropLine("edge-1", pt.rows[0])
	writeDrop(t, dir, "1-bad.csv", good+"edge-1,not-a-number\n", 0)
	writeDrop(t, dir, "2-nan.csv", good+strings.Replace(good, ",", ",NaN,", 1), 0)
	writeDrop(t, dir, "3-inf.csv", strings.Replace(good, ",", ",1e999,", 1), 0)
	writeDrop(t, dir, "4-short.csv", "edge-1,0.5,0.25\n", 0) // the daemon answers 400
	writeDrop(t, dir, "5-good.csv", good, 0)

	logged, err := pt.pass(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 5 {
		t.Fatalf("logged %d lines, want one per file:\n%s", len(logged), strings.Join(logged, "\n"))
	}
	for i, line := range logged[:4] {
		if !strings.Contains(line, "not retried") {
			t.Fatalf("file %d: %q, want a skip", i+1, line)
		}
	}
	if !strings.Contains(logged[3], "400") {
		t.Fatalf("short row: %q, want the daemon's 400", logged[3])
	}
	if got := pt.posts.Load(); got != 2 {
		t.Fatalf("%d batches posted, want 2 (the refused one and the good one)", got)
	}
	pt.checkDelivered(t, []dropRow{{"edge-1", pt.rows[0]}})

	logged, err = pt.pass(t, dir)
	if err != nil || len(logged) != 0 || pt.posts.Load() != 2 {
		t.Fatalf("second pass: err %v, %d posts, logged %q; want nothing", err, pt.posts.Load()-2, logged)
	}
}

// TestPushRedeliversAfterFailedBatch: a drop is journaled only after all
// of its batches answered 200. When the first batch is shed with 503 or
// its connection drops, the pass fails, the file stays unjournaled, and
// the next pass delivers every row of it exactly once.
func TestPushRedeliversAfterFailedBatch(t *testing.T) {
	for name, fail := range map[string]func(http.ResponseWriter){
		"503": func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		},
		"dropped connection": func(w http.ResponseWriter) {
			conn, _, err := http.NewResponseController(w).Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			pt := newPushTarget(t)
			var failures atomic.Int64
			failures.Store(1)
			pt.fail = func(w http.ResponseWriter, _ *http.Request) bool {
				if failures.Add(-1) < 0 {
					return false
				}
				fail(w)
				return true
			}
			dir := t.TempDir()
			var rows []dropRow
			var content strings.Builder
			for i := 0; i < 70; i++ {
				rows = append(rows, dropRow{"edge-1", pt.rows[i]})
				content.WriteString(dropLine("edge-1", pt.rows[i]))
			}
			writeDrop(t, dir, "a.csv", content.String(), 0)

			if _, err := pt.pass(t, dir); err == nil {
				t.Fatal("a pass whose first batch failed reported success")
			}
			journal, err := loadJournal(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := journal["a.csv"]; ok {
				t.Fatal("a.csv journaled although its first batch was not delivered")
			}
			if got := len(pt.records(t)); got != 0 {
				t.Fatalf("failed batch stored %d records", got)
			}

			if _, err := pt.pass(t, dir); err != nil {
				t.Fatal(err)
			}
			pt.checkDelivered(t, rows)
		})
	}
}

// FuzzPushLine holds the drop-line parser to strconv and the row it
// writes to encoding/json: a line is refused exactly when strconv does
// not read every feature as a finite number, and otherwise
// encoding/json decodes the row to those numbers, bit for bit.
func FuzzPushLine(f *testing.F) {
	for _, line := range []string{
		"edge-1,0.1,0.2",
		"d, -0 ,5e-324,1.7976931348623157e308",
		"d,1e-7,1e21,123456789012345678",
		"d,0x1p-2,1_000",
		"d,NaN",
		"d,+Inf",
		"d,1e999",
		"d,",
		"d,1,,2",
		"no-features",
		"<dev>&,3",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Split(line, ",")
		readable := len(fields) >= 2
		var want []float64
		for _, raw := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				readable = false
				break
			}
			want = append(want, v)
		}
		device, row, err := appendRow([]byte("prefix"), line)
		if err != nil {
			if readable {
				t.Fatalf("%q refused, but strconv reads it: %v", line, err)
			}
			return
		}
		if !readable {
			t.Fatalf("%q accepted, but strconv does not read every feature as a finite number", line)
		}
		if device != strings.TrimSpace(fields[0]) {
			t.Fatalf("%q: device %q", line, device)
		}
		if !strings.HasPrefix(string(row), "prefix") {
			t.Fatalf("%q: row does not extend dst: %q", line, row)
		}
		var got []float64
		if err := json.Unmarshal(row[len("prefix"):], &got); err != nil {
			t.Fatalf("%q: row %q is not JSON: %v", line, row, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: row %q has %d features, want %d", line, row, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: feature %d reads back %v, want %v", line, i, got[i], want[i])
			}
		}
	})
}
