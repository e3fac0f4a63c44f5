package main

// Example pins the retraining lifecycle's output, before and after one
// round of forensics.
func Example() {
	main()
	// Output:
	// == before retraining ==
	// cryptojack_v2 (held out)           meanEntropy=0.570 accuracy=0.237
	// other zero-days                    meanEntropy=0.690 accuracy=0.593
	//
	// forensics: 81 of 112 cryptojack_v2 windows rejected and labelled by the analyst
	// retrained on 1481 samples (round 1)
	//
	// == after retraining ==
	// cryptojack_v2 (held out)           meanEntropy=0.372 accuracy=0.711
	// other zero-days                    meanEntropy=0.526 accuracy=0.427
	//
	// absorbed family: entropy 0.570 -> 0.372 (35% lower), accuracy 0.237 -> 0.711
	// unrelated zero-days keep mean entropy 0.526: the detector still flags them.
	// one forensic round moves the family toward the known set; further
	// rounds (and more forensics) continue the shift — see detector.Retrainer.
}
