package detector

import (
	"strings"
	"testing"

	"trusthmd/internal/core"
	"trusthmd/pkg/model"
)

func nopBuilder(Params) model.Factory {
	return func(int64) model.Classifier { return &stump{} }
}

// ensureRegistered registers name, tolerating a leftover registration from
// an earlier in-process run: the registry is package-global state, so with
// `go test -count=2` every fixed test name already exists the second time.
func ensureRegistered(t *testing.T, name string) {
	t.Helper()
	if err := TryRegister(name, nopBuilder); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("registration failed: %v", err)
	}
}

func TestTryRegisterRejectsBadInput(t *testing.T) {
	if err := TryRegister("", nopBuilder); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := TryRegister("   ", nopBuilder); err == nil {
		t.Fatal("expected error for blank name")
	}
	if err := TryRegister("nilbuilder", nil); err == nil {
		t.Fatal("expected error for nil builder")
	}
	ensureRegistered(t, "try-fresh")
}

func TestDuplicateRegistration(t *testing.T) {
	ensureRegistered(t, "dup-family")
	// Case-insensitive collision, reported as an error by TryRegister...
	err := TryRegister("DUP-Family", nopBuilder)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate TryRegister: %v", err)
	}
	// ...and as a panic by Register. Silently replacing a family would
	// change which concrete types existing saved models decode into.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Register overwrote an existing family without panicking")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "already registered") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	Register("dup-family", nopBuilder)
}

func TestDuplicateBuiltinRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering built-in rf did not panic")
		}
	}()
	Register("rf", nopBuilder)
}

// TestDecisionMirrorsCore pins the exported Decision encoding to the
// internal one: the assess core converts between them with a plain type
// conversion, and the serialized Stats / HTTP wire forms rely on the
// integer values matching.
func TestDecisionMirrorsCore(t *testing.T) {
	pairs := []struct {
		pub Decision
		in  core.Decision
	}{
		{Benign, core.DecideBenign},
		{Malware, core.DecideMalware},
		{Reject, core.DecideReject},
	}
	for _, p := range pairs {
		if int(p.pub) != int(p.in) {
			t.Fatalf("decision %v = %d, core %v = %d", p.pub, int(p.pub), p.in, int(p.in))
		}
		if p.pub.String() != p.in.String() {
			t.Fatalf("decision string %q != core %q", p.pub.String(), p.in.String())
		}
	}
}
