package main

// Example_demo pins the demo's decision stream at seed 1: three known
// malware windows, then two zero-day windows (nav_maps, cryptojack_v2)
// that are both routed to the analyst.
func Example_demo() {
	if err := run("rf", 0.40, false, 5, 1, "", ""); err != nil {
		panic(err)
	}
	// Output:
	// training trusted HMD on DVFS telemetry...
	// streaming 5 windows at threshold 0.40 (model rf)
	//
	// window   0  app=botnet_relay   (known, truth=malware)  decision=malware entropy=0.000  OK
	// window   1  app=adware_loader  (known, truth=malware)  decision=malware entropy=0.000  OK
	// window   2  app=miner_a        (known, truth=malware)  decision=malware entropy=0.000  OK
	// window   3  app=nav_maps       (ZERO-DAY, truth=benign)  decision=reject  entropy=0.529  -> analyst
	// window   4  app=cryptojack_v2  (ZERO-DAY, truth=malware)  decision=reject  entropy=0.943  -> analyst
	//
	// stats: 0 benign, 3 malware, 2 rejected (40.0% of windows)
	// safe outcomes (correct or routed to analyst): 5/5
}
