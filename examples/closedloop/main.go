// Closed loop: the whole autonomous lifecycle in one process. Two
// telemetry producers assess their windows through a verdict-tapped fleet, a
// retrain controller tails the verdict store and watches each device's
// entropy stream, and when one device starts replaying zero-day windows
// the controller retrains on its own goroutine and hot-swaps the fleet
// while the producers keep assessing — no operator, no downtime, no lost
// verdicts.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

func main() {
	// 1. Train the detector that will be supervised.
	splits, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 320, Test: 80, Unknown: 160})
	if err != nil {
		log.Fatal(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"),
		detector.WithEnsembleSize(9),
		detector.WithSeed(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Open the verdict store and build a fleet that taps every served
	// verdict into it.
	dir, err := os.MkdirTemp("", "closedloop-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fleet, err := serve.NewFleet(
		map[string]*detector.Detector{"hmd": det},
		serve.Config{DefaultModel: "hmd", Verdicts: store},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	// 3. The retrain controller tails the store and folds its records in
	// seq order; sustained drift on any single device runs a retrain
	// round in place on the controller's goroutine, then a zero-downtime
	// Fleet.Swap, while the fleet keeps serving on the old version.
	ctrl, err := serve.NewRetrainController(serve.RetrainConfig{
		Store:          store,
		Fleet:          fleet,
		Model:          "hmd",
		Base:           splits.Train,
		Interval:       20 * time.Millisecond,
		Drift:          detector.DriftConfig{Window: 16},
		BaselineSample: 120,
		Sustain:        3,
		Quorum:         20,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrlDone := make(chan error, 1)
	go func() { ctrlDone <- ctrl.Run(ctx) }()

	// 4. Drive telemetry: two producers assess their windows through the
	// fleet, so every window becomes a stored, drift-monitored verdict. A
	// healthy device replays known test windows, a compromised one
	// replays the zero-day split — that is the injected drift. Both stop
	// once the retrained model is serving.
	var assessed atomic.Int64
	var wg sync.WaitGroup
	produce := func(device string, windows *dataset.Dataset) {
		defer wg.Done()
		for i := 0; fleet.Epoch() == 1 && ctx.Err() == nil; i++ {
			_, err := fleet.Assess(ctx, serve.AssessSpec{Device: device, Features: windows.At(i % windows.Len()).Features})
			if err != nil {
				if ctx.Err() == nil {
					log.Fatal(err)
				}
				return
			}
			assessed.Add(1)
		}
	}
	wg.Add(2)
	go produce("healthy", splits.Test)
	go produce("edge-7", splits.Unknown)
	timer := time.AfterFunc(30*time.Second, cancel)
	wg.Wait()
	if !timer.Stop() {
		log.Fatalf("no retrain within 30s: %+v", ctrl.Stats())
	}

	// 5. The loop has closed: report what happened.
	cancel()
	<-ctrlDone
	st, cs := store.Stats(), ctrl.Stats()
	fmt.Printf("swap cause:        %s (fleet epoch %d)\n", fleet.LastSwapCause(), fleet.Epoch())
	fmt.Printf("retrains:          %d\n", cs.Retrains)
	fmt.Printf("assessed:          %d windows\n", assessed.Load())
	fmt.Printf("verdicts stored:   %d in %d segment(s)\n", st.Records, st.Segments)
	rejects, err := store.Query(verdictstore.Filter{Device: "edge-7", Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first edge-7 verdicts: ")
	for _, r := range rejects {
		fmt.Printf("v%d/%s ", r.Version, r.Decision)
	}
	fmt.Println()
}
