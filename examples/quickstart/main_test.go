package main

// Example pins the quickstart's output: the known workload is accepted
// with unanimous votes, the zero-day one is rejected.
func Example() {
	main()
	// Output:
	// known workload (idle_launcher)   decision=benign  entropy=0.000 votes=[1 0]
	// zero-day workload (nav_maps)     decision=reject  entropy=0.943 votes=[0.36 0.64]
}
