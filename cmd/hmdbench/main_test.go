package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"trusthmd/internal/exp"
)

// TestRun runs the cheapest experiment through the table and checks that an
// unknown ID fails with an error naming every valid one.
func TestRun(t *testing.T) {
	if err := run("T1", exp.Config{Seed: 1, Scale: 0.01}); err != nil {
		t.Fatalf("T1: %v", err)
	}
	err := run("F6", exp.Config{Seed: 1, Scale: 0.01})
	if err == nil {
		t.Fatal("unknown experiment F6 ran")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.id) {
			t.Errorf("error %q does not name experiment %s", err, e.id)
		}
	}
}

// experimentDigests pins the SHA-256 of every experiment's rendering at
// Scale 0.02, Seed 1, M 25 (and of H's at Scale 0.1, the setting its
// numbers are usually checked at), with SIMD on and off alike. A change
// that means to move a paper number updates its digest here and says why
// in CHANGES.md; any other change must leave every one of them alone.
var experimentDigests = map[string]string{
	"T1":    "ea0515ecd7fdd8cfeda0cac27117beec2ea6a3affc0de00016209acd0c10169a",
	"F4":    "0e2f4cc29a9061555a680242b4811b3b2660d2d4b1a20aa7b971d309a3cb062c",
	"F5":    "7ed72ca560f3823a328ab18ee0957c5bbd9257e87ab31114519bb098652126de",
	"F7a":   "53da4282ff12410745871959ab75dcc89130723d0855289b4f6da4a521c73fbd",
	"F7b":   "e0ccd0bdd653b959cbca3c7a23d7ed7e2b835cb7d33bf1e7061153e2fd9dea42",
	"F8":    "f2dd9e5350a92f09d817ed58a4814fff53f6d2ba8be2e0adb44e529619f945b5",
	"F9a":   "9ad0da34c6ce9249123bc36f867d7deb92c95f0a0432a49927addea63763ea35",
	"F9b":   "dda2bc7b6e23dde6fca401901e271bd94dcc9389bf99583163116489301c241a",
	"H":     "ec7a2d052e022aa4b0022eb4fa7ed7b9ff24135aa6465f989bd922af74a6cf57",
	"A1":    "185c9a7f1c32e8d4605676c77c9c7f1f99983c30cd8d0aa1c6bd5b2a6465dd5f",
	"A2":    "bacfcf00fa392f698e802f08ec914349c311cbb81ba28dfea82e90edd72b5138",
	"A3":    "c320ccfcf77bd156323f66bf0aa1bd4fc0c526c83ad278fc45b15159569e9baf",
	"A4":    "ca6719005d59271f0f7f9a8954d6a7211b733e557e5c92763be5d25bc12ff07e",
	"A5":    "03fb9f56a857c8ec1101ef230faaa4fd3d2d50ed2448288102c5ac3624673036",
	"E1":    "74cf6905d8a6962ffbe89340785b2b1dfab4c4f6315223c6c8ade1282958120a",
	"E2":    "a9aac59a47cdef793f5be03be44bd63e337f87b6bb4a83f6ccd18e71c75567c1",
	"H@0.1": "643733413da825365e57f78f0957344667b2187106f95ef365c81cc7291cfacc",
}

// TestExperimentDigests runs the whole experiments table at a small scale
// and holds each rendering to its pinned digest, so a change anywhere in
// the model path that moves a number in a table or figure fails here.
func TestExperimentDigests(t *testing.T) {
	check := func(key string, run func(exp.Config) (renderer, error), cfg exp.Config) {
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256([]byte(res.Render()))
		if got, want := hex.EncodeToString(sum[:]), experimentDigests[key]; got != want {
			t.Errorf("%s: rendering digest %s, want %s", key, got, want)
		}
	}
	for _, e := range experiments {
		check(e.id, e.run, exp.Config{Scale: 0.02, Seed: 1, M: 25})
		if e.id == "H" {
			check("H@0.1", e.run, exp.Config{Scale: 0.1, Seed: 1, M: 25})
		}
	}
}
