// Retraining feedback loop: the full trusted-HMD lifecycle from the
// paper's introduction. A zero-day cryptojacker is first rejected by the
// uncertainty estimator; its rejected windows are collected as forensics
// and labelled by an analyst; the detector retrains. One round moves the
// held-out part of the family toward the known set: accuracy 0.237 ->
// 0.711, mean entropy 0.570 -> 0.372. The unrelated zero-days keep a high
// mean entropy (0.526), so they still trip the estimator, but the round
// costs accuracy on them: 0.593 -> 0.427.
package main

import (
	"fmt"
	"log"

	"trusthmd/internal/gen"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

func main() {
	splits, err := gen.DVFSWithSizes(8, gen.Sizes{Train: 1400, Test: 280, Unknown: 600})
	if err != nil {
		log.Fatal(err)
	}
	opts := []detector.Option{
		detector.WithModel("rf"),
		detector.WithEnsembleSize(25),
		detector.WithSeed(8),
		detector.WithThreshold(0.40),
	}
	det, err := detector.New(splits.Train, opts...)
	if err != nil {
		log.Fatal(err)
	}

	const family = "cryptojack_v2"
	var familySamples, otherUnknown []dataset.Sample
	for i := 0; i < splits.Unknown.Len(); i++ {
		s := splits.Unknown.At(i)
		if s.App == family {
			familySamples = append(familySamples, s)
		} else {
			otherUnknown = append(otherUnknown, s)
		}
	}
	forensic := familySamples[:3*len(familySamples)/4]
	heldOut := familySamples[3*len(familySamples)/4:]

	report := func(name string, d *detector.Detector, samples []dataset.Sample) (meanH, acc float64) {
		var hs []float64
		correct := 0
		for _, s := range samples {
			r, err := d.Assess(s.Features)
			if err != nil {
				log.Fatal(err)
			}
			hs = append(hs, r.Entropy)
			if r.Prediction == s.Label {
				correct++
			}
		}
		meanH = linalg.Mean(hs)
		acc = float64(correct) / float64(len(samples))
		fmt.Printf("%-34s meanEntropy=%.3f accuracy=%.3f\n", name, meanH, acc)
		return meanH, acc
	}

	fmt.Println("== before retraining ==")
	hFamBefore, accFamBefore := report(family+" (held out)", det, heldOut)
	report("other zero-days", det, otherUnknown)

	// Rejected windows go to the analyst; the analyst labels them.
	retrainer, err := detector.NewRetrainer(splits.Train, 40, opts...)
	if err != nil {
		log.Fatal(err)
	}
	var rejected []detector.Forensic
	for _, s := range forensic {
		res, err := det.Assess(s.Features)
		if err != nil {
			log.Fatal(err)
		}
		if res.Decision == detector.Reject {
			rejected = append(rejected, detector.Forensic{Features: s.Features, Label: s.Label, App: s.App})
		}
	}
	if err := retrainer.ReportForensics(rejected); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nforensics: %d of %d %s windows rejected and labelled by the analyst\n",
		len(rejected), len(forensic), family)
	if !retrainer.ShouldRetrain() {
		log.Fatalf("forensic quorum not reached (%d pending)", retrainer.Pending())
	}

	det, err = retrainer.Retrain()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrained on %d samples (round %d)\n\n", retrainer.TrainingSize(), retrainer.Rounds())

	fmt.Println("== after retraining ==")
	hFam, accFam := report(family+" (held out)", det, heldOut)
	hOther, _ := report("other zero-days", det, otherUnknown)

	fmt.Printf("\nabsorbed family: entropy %.3f -> %.3f (%.0f%% lower), accuracy %.3f -> %.3f\n",
		hFamBefore, hFam, 100*(1-hFam/hFamBefore), accFamBefore, accFam)
	fmt.Printf("unrelated zero-days keep mean entropy %.3f: the detector still flags them.\n", hOther)
	fmt.Println("one forensic round moves the family toward the known set; further")
	fmt.Println("rounds (and more forensics) continue the shift — see detector.Retrainer.")
}
