// Streamclient drives a running trusthmdd daemon over the NDJSON
// streaming endpoint: it generates a DVFS state trace (benign workloads,
// then a cryptojacker), streams the raw states to POST /v1/assess/stream,
// and prints the trusted verdicts as they come back line by line — the
// whole online loop (windowing, feature extraction, rejection) runs
// server-side, so the client ships integers, not feature vectors.
//
// Start a daemon first, then point the client at it:
//
//	go run ./cmd/trusthmd  -model rf -save det.gob
//	go run ./cmd/trusthmdd -load det.gob
//	go run ./examples/streamclient [-addr http://localhost:8080]
//	    [-model name] [-device host-0] [-window 256] [-stride 128]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/workload"
	"trusthmd/pkg/serve"
)

func main() {
	var (
		addr   = flag.String("addr", "http://localhost:8080", "trusthmdd base URL")
		model  = flag.String("model", "", "shard to stream to (empty: device routing or server default)")
		device = flag.String("device", "", "device key for consistent-hash routing")
		window = flag.Int("window", 256, "states per assessment window")
		stride = flag.Int("stride", 128, "new states between assessments")
	)
	flag.Parse()
	if err := run(*addr, *model, *device, *window, *stride, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run streams the two-phase trace to the daemon at addr and writes each
// verdict, then the stream summary, to w.
func run(addr, model, device string, window, stride int, w io.Writer) error {
	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		return err
	}
	apps := map[string]workload.DVFSBehavior{}
	for _, a := range workload.DVFSApps() {
		apps[a.Name] = a
	}

	// Two phases of telemetry: ordinary usage, then a miner takes over.
	rng := rand.New(rand.NewSource(42))
	var states []int
	for _, phase := range []struct {
		app     string
		windows int
	}{
		{"web_browser", 6},
		{"miner_a", 6},
	} {
		for i := 0; i < phase.windows; i++ {
			trace, err := sim.Trace(apps[phase.app], rng)
			if err != nil {
				return err
			}
			states = append(states, trace...)
		}
	}

	// The request body is written into a pipe while the response is read
	// concurrently: decisions stream back while states are still going out.
	// On return, closing the read end unblocks the writer if the server
	// stopped reading early, and run waits for the writer to exit.
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	defer func() {
		pr.Close()
		<-wrote
	}()
	go func() {
		defer close(wrote)
		enc := json.NewEncoder(pw)
		if err := enc.Encode(serve.StreamHeader{
			Model:  model,
			Device: device,
			Levels: sim.Config().Levels,
			Window: window,
			Stride: stride,
		}); err != nil {
			pw.CloseWithError(err)
			return
		}
		for i := 0; i < len(states); i += 64 {
			end := i + 64
			if end > len(states) {
				end = len(states)
			}
			if err := enc.Encode(serve.StreamSample{States: states[i:end]}); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()

	resp, err := http.Post(addr+"/v1/assess/stream", "application/x-ndjson", pr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream rejected: %d: %s", resp.StatusCode, body)
	}

	fmt.Fprintf(w, "streaming %d DVFS states (window %d, stride %d)\n\n", len(states), window, stride)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return fmt.Errorf("bad stream line: %s", sc.Bytes())
		}
		switch {
		case probe["error"] != nil:
			var e serve.ErrorResponse
			_ = json.Unmarshal(sc.Bytes(), &e)
			return fmt.Errorf("stream error: %s", e.Error)
		case probe["done"] != nil:
			var sum serve.StreamSummary
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nstream done: model %s v%d — %d samples, %d decisions (%d benign / %d malware / %d rejected)\n",
				sum.Model, sum.Version, sum.Samples, sum.Decisions, sum.Benign, sum.Malware, sum.Rejected)
		default:
			var r serve.StreamResult
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return err
			}
			marker := ""
			if r.Decision != "benign" {
				marker = "  <-- " + r.Decision
			}
			fmt.Fprintf(w, "decision %3d @ sample %5d: %-7s (entropy %.3f, model %s v%d)%s\n",
				r.Seq, r.Sample, r.Decision, r.Entropy, r.Model, r.Version, marker)
		}
	}
	return sc.Err()
}
