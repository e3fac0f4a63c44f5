package workload

import (
	"testing"
	"testing/quick"

	"trusthmd/pkg/dataset"
)

func TestDVFSCatalogueValid(t *testing.T) {
	apps := DVFSApps()
	if len(apps) == 0 {
		t.Fatal("empty catalogue")
	}
	names := map[string]bool{}
	var known, unknown, benign, malware int
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if names[a.Name] {
			t.Fatalf("duplicate app %q", a.Name)
		}
		names[a.Name] = true
		if a.Known {
			known++
		} else {
			unknown++
		}
		if a.Label == dataset.Benign {
			benign++
		} else {
			malware++
		}
	}
	if known < 10 || unknown < 2 {
		t.Fatalf("known=%d unknown=%d", known, unknown)
	}
	if benign == 0 || malware == 0 {
		t.Fatal("need both classes")
	}
	// The unknown bucket must contain both classes (zero-day malware and
	// novel benign apps), as in the paper's setup.
	var ub, um int
	for _, a := range apps {
		if !a.Known {
			if a.Label == dataset.Benign {
				ub++
			} else {
				um++
			}
		}
	}
	if ub == 0 || um == 0 {
		t.Fatalf("unknown bucket needs both classes, got %d benign %d malware", ub, um)
	}
}

func TestDVFSCalibrationGap(t *testing.T) {
	// The calibration the package doc states: known benign loads and known
	// malware loads form separated groups; unknown apps sit in the gap.
	var maxBenign, minUnknown, maxUnknown float64
	minMalware := 1.0
	minUnknown = 1.0
	for _, a := range DVFSApps() {
		switch {
		case !a.Known:
			if a.BaseLoad < minUnknown {
				minUnknown = a.BaseLoad
			}
			if a.BaseLoad > maxUnknown {
				maxUnknown = a.BaseLoad
			}
		case a.Label == dataset.Benign:
			if a.BaseLoad > maxBenign {
				maxBenign = a.BaseLoad
			}
		default:
			// Exempt low-load stealth malware (beacon/botnet): their
			// signature is periodic/bursty structure, not load.
			if a.BaseLoad > 0.3 && a.BaseLoad < minMalware {
				minMalware = a.BaseLoad
			}
		}
	}
	if !(maxBenign < minUnknown && maxUnknown < minMalware) {
		t.Fatalf("unknown band [%v,%v] must sit between benign max %v and malware min %v",
			minUnknown, maxUnknown, maxBenign, minMalware)
	}
}

func TestHPCCatalogueValid(t *testing.T) {
	apps := HPCApps()
	const nComponents = 5
	names := map[string]bool{}
	var known, unknown int
	for _, a := range apps {
		if err := a.Validate(nComponents); err != nil {
			t.Fatal(err)
		}
		if names[a.Name] {
			t.Fatalf("duplicate app %q", a.Name)
		}
		names[a.Name] = true
		if a.Known {
			known++
		} else {
			unknown++
		}
	}
	if known < 10 || unknown < 3 {
		t.Fatalf("known=%d unknown=%d", known, unknown)
	}
}

func TestDVFSValidateRejects(t *testing.T) {
	base := DVFSApps()[0]
	cases := map[string]func(b DVFSBehavior) DVFSBehavior{
		"no name":    func(b DVFSBehavior) DVFSBehavior { b.Name = ""; return b },
		"bad label":  func(b DVFSBehavior) DVFSBehavior { b.Label = 9; return b },
		"load high":  func(b DVFSBehavior) DVFSBehavior { b.BaseLoad = 1.5; return b },
		"load low":   func(b DVFSBehavior) DVFSBehavior { b.BaseLoad = -0.1; return b },
		"amp high":   func(b DVFSBehavior) DVFSBehavior { b.PeriodAmp = 1.2; return b },
		"bad period": func(b DVFSBehavior) DVFSBehavior { b.PeriodAmp = 0.3; b.Period = 1; return b },
		"rate high":  func(b DVFSBehavior) DVFSBehavior { b.BurstRate = 1.2; return b },
		"burst len":  func(b DVFSBehavior) DVFSBehavior { b.BurstRate = 0.1; b.BurstLen = 0; return b },
		"neg noise":  func(b DVFSBehavior) DVFSBehavior { b.Noise = -1; return b },
	}
	for name, mutate := range cases {
		if err := mutate(base).Validate(); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestHPCValidateRejects(t *testing.T) {
	base := HPCApps()[0]
	cases := map[string]func(b HPCBehavior) HPCBehavior{
		"no name":    func(b HPCBehavior) HPCBehavior { b.Name = ""; return b },
		"bad label":  func(b HPCBehavior) HPCBehavior { b.Label = 9; return b },
		"wrong mix":  func(b HPCBehavior) HPCBehavior { b.Mix = []float64{1}; return b },
		"neg weight": func(b HPCBehavior) HPCBehavior { m := append([]float64{}, b.Mix...); m[0] = -0.1; b.Mix = m; return b },
		"bad sum": func(b HPCBehavior) HPCBehavior {
			b.Mix = []float64{0.5, 0.5, 0.5, 0, 0}
			return b
		},
		"intensity": func(b HPCBehavior) HPCBehavior { b.Intensity = 0; return b },
		"spread":    func(b HPCBehavior) HPCBehavior { b.Spread = -1; return b },
	}
	for name, mutate := range cases {
		if err := mutate(base).Validate(5); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestAllocateExact(t *testing.T) {
	got, err := Allocate(2100, 14)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range got {
		if v != 150 {
			t.Fatalf("allocation %v", got)
		}
		sum += v
	}
	if sum != 2100 {
		t.Fatalf("sum %d", sum)
	}
	got, err = Allocate(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("allocation %v", got)
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(5, 0); err == nil {
		t.Fatal("expected parts error")
	}
	if _, err := Allocate(-1, 2); err == nil {
		t.Fatal("expected total error")
	}
}

func TestAllocateSumProperty(t *testing.T) {
	f := func(total uint16, parts uint8) bool {
		p := int(parts%40) + 1
		tot := int(total % 10000)
		alloc, err := Allocate(tot, p)
		if err != nil {
			return false
		}
		sum := 0
		min, max := alloc[0], alloc[0]
		for _, v := range alloc {
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return sum == tot && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKnownFilter(t *testing.T) {
	apps := DVFSApps()
	known := Known(apps, func(a DVFSBehavior) bool { return a.Known })
	for _, a := range known {
		if !a.Known {
			t.Fatal("filter leaked unknown app")
		}
	}
	if len(known) == 0 || len(known) == len(apps) {
		t.Fatalf("filter degenerate: %d of %d", len(known), len(apps))
	}
}
