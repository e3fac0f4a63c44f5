package main

import (
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
