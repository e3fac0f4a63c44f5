// Closed loop: the whole autonomous lifecycle in one process. Telemetry
// events flow through an ingest pump into a verdict-tapped fleet, a
// retrain controller tails the verdict store and watches each device's
// entropy stream, and when one device starts replaying zero-day windows
// the controller retrains in the background and hot-swaps the fleet —
// no operator, no downtime, no lost verdicts.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/ingest"
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

	// 3. The ingest pump is the telemetry front door: events fan in
	// through a bounded queue and land in the fleet's assess path, so
	// every ingested window becomes a stored, drift-monitored verdict.
	pump := ingest.NewPump(func(ctx context.Context, ev ingest.Event) error {
		_, err := fleet.Assess(ctx, serve.AssessSpec{
			Model:    ev.Model,
			Device:   ev.Device,
			Features: ev.Features,
			Source:   "ingest",
		})
		return err
	}, ingest.Config{Queue: 256, Workers: 2})

	// 4. The retrain controller tails the store; sustained drift on any
	// single device triggers a background retrain and a zero-downtime
	// Fleet.Swap.
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
	pumpDone := make(chan error, 1)
	ctrlDone := make(chan error, 1)
	go func() { pumpDone <- pump.Run(ctx) }()
	go func() { ctrlDone <- ctrl.Run(ctx) }()

	// 5. Drive telemetry: a healthy device replays known test windows, a
	// compromised one replays the zero-day split — that is the injected
	// drift. Push sheds with ErrBusy under pressure; a real producer
	// would back off, here we just retry.
	push := func(device string, features []float64) {
		for {
			err := pump.Push(ingest.Event{Device: device, Features: features})
			if err == nil {
				return
			}
			if err == ingest.ErrBusy {
				time.Sleep(time.Millisecond)
				continue
			}
			log.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; fleet.Epoch() == 1; i++ {
		push("healthy", splits.Test.At(i%splits.Test.Len()).Features)
		push("edge-7", splits.Unknown.At(i%splits.Unknown.Len()).Features)
		if time.Now().After(deadline) {
			log.Fatalf("no retrain within 30s: %+v", ctrl.Stats())
		}
	}

	// 6. The loop has closed: report what happened.
	cancel()
	if err := <-pumpDone; err != nil {
		log.Fatal(err)
	}
	<-ctrlDone
	st, ps, cs := store.Stats(), pump.Stats(), ctrl.Stats()
	fmt.Printf("swap cause:        %s (fleet epoch %d)\n", fleet.LastSwapCause(), fleet.Epoch())
	fmt.Printf("retrains:          %d\n", cs.Retrains)
	fmt.Printf("ingested:          %d events (%d shed and retried)\n", ps.Handled, ps.Shed)
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
