package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"trusthmd/internal/jsonwire"
)

// `trusthmd push -dir D -addr URL` makes one pass over a drop directory of
// CSV telemetry and posts every new or changed *.csv file, oldest first,
// to a trusthmdd node's /v1/assess/batch. Each line reads
//
//	device,f0,f1,...,f{d-1}
//
// with blank lines and '#' comments skipped. Each run of consecutive lines
// from one device goes out as batch bodies of at most pushBatchRows rows;
// any node takes them, since a clustered node forwards a batch to the
// owner of its device. Continuous polling is a shell loop around the pass.
//
// A file is recorded in the directory's journal only once every one of
// its batches has answered 200, so a daemon that is down, shedding or
// killed mid-file leaves the file for the next pass (delivery is
// at-least-once: a batch answered before the failure is posted again). A
// file that cannot be delivered as written — a bad or non-finite number,
// or a batch the daemon refuses with a 4xx — is logged and journaled, not
// retried; rewriting it makes it new telemetry.

// journalName is the processed-file ledger kept inside the drop directory.
// The name and format are those of the daemon's former in-process poller,
// so a journal it left behind carries over.
const journalName = ".ingest-journal.json"

// pushBatchRows caps the rows of one posted batch body.
const pushBatchRows = 64

// journalEntry fingerprints a delivered drop file. A file is posted again
// only when its size or mtime changes.
type journalEntry struct {
	Size  int64 `json:"size"`
	Mtime int64 `json:"mtime_ns"`
}

var pushClient = &http.Client{Timeout: time.Minute}

// runPush parses push's command line and makes one pass.
func runPush(args []string) error {
	fs := flag.NewFlagSet("trusthmd push", flag.ExitOnError)
	dir := fs.String("dir", "", "drop directory of *.csv telemetry files (device,f0,f1,... per line)")
	addr := fs.String("addr", "http://localhost:8080", "base URL of any trusthmdd node")
	fs.Parse(args)
	if *dir == "" || fs.NArg() > 0 {
		fs.Usage()
		return errors.New("want -dir D and no arguments")
	}
	return push(*dir, *addr, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "trusthmd push: "+format+"\n", args...)
	})
}

// push makes one pass over dir, posting to the node at addr. It returns
// the first delivery failure, leaving that file and every later one for
// the next pass.
func push(dir, addr string, logf func(format string, args ...any)) error {
	journal, err := loadJournal(dir, logf)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type drop struct {
		name  string
		entry journalEntry
	}
	var drops []drop
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".csv") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // racing a concurrent delete
		}
		fp := journalEntry{Size: fi.Size(), Mtime: fi.ModTime().UnixNano()}
		if prev, ok := journal[name]; ok && prev == fp {
			continue
		}
		drops = append(drops, drop{name: name, entry: fp})
	}
	sort.Slice(drops, func(i, j int) bool {
		if drops[i].entry.Mtime != drops[j].entry.Mtime {
			return drops[i].entry.Mtime < drops[j].entry.Mtime
		}
		return drops[i].name < drops[j].name
	})
	url := strings.TrimRight(addr, "/") + "/v1/assess/batch"
	for _, dr := range drops {
		rows, err := pushFile(url, filepath.Join(dir, dr.name))
		var refused *refusedError
		switch {
		case errors.As(err, &refused):
			logf("%s: %v (file skipped, not retried)", dr.name, err)
		case err != nil:
			return fmt.Errorf("%s: %w", dr.name, err)
		default:
			logf("%s: %d rows", dr.name, rows)
		}
		journal[dr.name] = dr.entry
		if err := saveJournal(dir, journal); err != nil {
			return err
		}
	}
	return nil
}

// refusedError marks a drop that no retry can deliver: it does not parse,
// or the daemon answered one of its batches with a 4xx.
type refusedError struct{ err error }

func (e *refusedError) Error() string { return e.err.Error() }

// pushFile posts one drop file and returns how many rows it delivered.
// The whole file is read before the first post, so a file that does not
// read or parse posts nothing.
func pushFile(url, path string) (int, error) {
	bodies, rows, err := readDrop(path)
	if err != nil {
		return 0, &refusedError{err}
	}
	for i, body := range bodies {
		resp, err := pushClient.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		// Reading the answer to the end lets the next batch reuse the
		// connection.
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusOK {
			continue
		}
		err = fmt.Errorf("batch %d: %s: %s", i, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			err = &refusedError{err}
		}
		return 0, err
	}
	return rows, nil
}

// readDrop turns a drop file into /v1/assess/batch bodies: each run of
// consecutive lines from one device fills bodies of at most pushBatchRows
// rows.
func readDrop(path string) (bodies [][]byte, rows int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var (
		body   []byte // the open body: n rows from device
		device string
		n      int
		row    []byte
	)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var dev string
		if dev, row, err = appendRow(row[:0], line); err != nil {
			return nil, 0, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if n == pushBatchRows || (n > 0 && dev != device) {
			bodies, n = append(bodies, append(body, "]}"...)), 0
		}
		if n == 0 {
			device = dev
			body = append(jsonwire.AppendString([]byte(`{"device":`), dev), `,"batch":[`...)
		} else {
			body = append(body, ',')
		}
		body = append(body, row...)
		n++
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if n > 0 {
		bodies = append(bodies, append(body, "]}"...))
	}
	return bodies, rows, nil
}

// appendRow parses one drop line, device,f0,f1,..., and appends its
// features to dst as a JSON array. A feature that is not a finite number
// refuses the line: JSON has no NaN or Inf, and strconv reports an
// out-of-range literal such as 1e999 as an error.
func appendRow(dst []byte, line string) (device string, row []byte, err error) {
	device, rest, ok := strings.Cut(line, ",")
	if !ok {
		return "", dst, errors.New("want device,f0,...")
	}
	dst = append(dst, '[')
	for i := 0; ; i++ {
		raw, tail, more := strings.Cut(rest, ",")
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return "", dst, fmt.Errorf("feature %d: %v", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", dst, fmt.Errorf("feature %d: %q is not a finite number", i, raw)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.AppendFloat(dst, v)
		if !more {
			break
		}
		rest = tail
	}
	return strings.TrimSpace(device), append(dst, ']'), nil
}

func loadJournal(dir string, logf func(format string, args ...any)) (map[string]journalEntry, error) {
	journal := make(map[string]journalEntry)
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return journal, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &journal); err != nil {
		// A torn journal cannot come from saveJournal; if one appears
		// anyway, every drop is posted again (at-least-once).
		logf("resetting corrupt journal: %v", err)
		return make(map[string]journalEntry), nil
	}
	return journal, nil
}

// saveJournal writes the ledger atomically — a temp file in the same
// directory, synced, then renamed over the old one — so a crash leaves
// either the old journal or the new one, never a torn write.
func saveJournal(dir string, journal map[string]journalEntry) error {
	data, err := json.Marshal(journal)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, journalName+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, journalName))
}
