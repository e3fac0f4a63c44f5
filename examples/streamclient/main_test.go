package main

import (
	"net/http/httptest"
	"os"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// Example pins the client against an in-process daemon: a DVFS rf
// detector trained on fixed seeds, served as the one shard "dvfs". No
// browser window is called malware, the window that straddles the switch
// to the miner is rejected, and the miner's own windows are called malware.
func Example() {
	splits, err := gen.DVFSWithSizes(1, gen.Sizes{Train: 700, Test: 210, Unknown: 80})
	if err != nil {
		panic(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"),
		detector.WithEnsembleSize(25),
		detector.WithSeed(42),
		detector.WithThreshold(0.40),
	)
	if err != nil {
		panic(err)
	}
	fleet, err := serve.NewFleet(map[string]*detector.Detector{"dvfs": det}, serve.Config{})
	if err != nil {
		panic(err)
	}
	srv := serve.NewServer(fleet)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := run(ts.URL, "", "", 256, 128, os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// streaming 3072 DVFS states (window 256, stride 128)
	//
	// decision   1 @ sample   255: benign  (entropy 0.000, model dvfs v1)
	// decision   2 @ sample   383: reject  (entropy 0.999, model dvfs v1)  <-- reject
	// decision   3 @ sample   511: reject  (entropy 0.402, model dvfs v1)  <-- reject
	// decision   4 @ sample   639: benign  (entropy 0.242, model dvfs v1)
	// decision   5 @ sample   767: benign  (entropy 0.242, model dvfs v1)
	// decision   6 @ sample   895: reject  (entropy 0.402, model dvfs v1)  <-- reject
	// decision   7 @ sample  1023: benign  (entropy 0.000, model dvfs v1)
	// decision   8 @ sample  1151: benign  (entropy 0.000, model dvfs v1)
	// decision   9 @ sample  1279: reject  (entropy 0.402, model dvfs v1)  <-- reject
	// decision  10 @ sample  1407: reject  (entropy 0.402, model dvfs v1)  <-- reject
	// decision  11 @ sample  1535: reject  (entropy 0.402, model dvfs v1)  <-- reject
	// decision  12 @ sample  1663: reject  (entropy 0.971, model dvfs v1)  <-- reject
	// decision  13 @ sample  1791: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  14 @ sample  1919: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  15 @ sample  2047: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  16 @ sample  2175: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  17 @ sample  2303: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  18 @ sample  2431: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  19 @ sample  2559: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  20 @ sample  2687: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  21 @ sample  2815: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  22 @ sample  2943: malware (entropy 0.000, model dvfs v1)  <-- malware
	// decision  23 @ sample  3071: reject  (entropy 0.402, model dvfs v1)  <-- reject
	//
	// stream done: model dvfs v1 — 3072 samples, 23 decisions (5 benign / 10 malware / 8 rejected)
}
