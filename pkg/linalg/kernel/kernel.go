// Package kernel hosts the hand-vectorized inner loops of the inference
// hot path: the axpy behind the dense row×matrix product, the fused
// center+scale pass of the feature scaler, plain row centering for PCA,
// and the bitmask tree-compare step behind the forest's batched vote.
//
// # Dispatch
//
// The implementation behind each exported function is selected exactly
// once, at package init, from CPU feature detection (CPUID on amd64):
// AVX2 where the OS saves YMM state, SSE2 otherwise (SSE2 is the amd64
// baseline), and the pure-Go loops everywhere else. The pure-Go path is
// always compiled and always tested — it is the reference the equivalence
// property tests pin the assembly against — and can be forced two ways:
//
//   - setting the TRUSTHMD_NOSIMD environment variable (any non-empty
//     value) before the process starts;
//   - calling ForceGeneric from code (tests; not safe concurrently with
//     kernel use — switch implementations only while no kernel calls are
//     in flight).
//
// # Bit-identical contract
//
// SIMD and generic paths must produce bit-identical float64 results.
// That constrains the kernels:
//
//   - Elementwise loops (axpy, (x-mu)/sd, x-mu) vectorize exactly: each
//     output element keeps its own sequential dependency chain, so
//     evaluating four lanes at once performs the very same rounded
//     operations in the very same order per element.
//   - No FMA, ever: a fused multiply-add rounds once where the Go loop
//     rounds twice, so axpy is VMULPD+VADDPD even on FMA hardware.
//   - Horizontal reductions (linalg.Dot) are NOT vectorized: a 4-lane
//     partial-sum reduction reassociates the additions and changes the
//     rounding, so dot products stay scalar everywhere.
//   - The tree kernel compares floats but ANDs integers; comparisons are
//     exact in IEEE 754, so there is no ordering constraint at all.
//
// NaN payloads are outside the contract: x86 min/add NaN-propagation
// picks operands in an order Go does not specify, so "NaN in, NaN out"
// holds bitwise only up to the payload.
package kernel

import (
	"fmt"
	"os"
)

// NoSIMDEnv is the environment variable that forces the pure-Go kernels
// for the whole process when set to any non-empty value.
const NoSIMDEnv = "TRUSTHMD_NOSIMD"

// impl is one dispatch table: every kernel the package exports, plus the
// name Active reports.
type impl struct {
	name        string
	axpy        func(dst []float64, alpha float64, x []float64)
	centerScale func(dst, x, mu, sd []float64)
	sub         func(dst, x, mu []float64)
	// treeMaskVec selects the vector tree kernel (treeMask32Vec, a direct
	// //go:noescape call — a function-pointer indirection here would make
	// the caller's stack bitvector escape and allocate per block). It also
	// tells callers the kernel is worth restructuring a batch for
	// (transposing the input); the generic fallback is correct but slower
	// than the row-major tree walks it would replace.
	treeMaskVec bool
}

var genericImpl = impl{
	name:        "generic",
	axpy:        axpyGeneric,
	centerScale: centerScaleGeneric,
	sub:         subGeneric,
}

// active is the selected dispatch table. It is written at init and by
// ForceGeneric/Reset only; kernel calls read it without synchronisation,
// so switching tables while kernels run on other goroutines is a caller
// bug (the package documents the switch hooks as test-only).
var active = genericImpl

func init() {
	Reset()
}

// Reset re-runs the init-time dispatch: generic when TRUSTHMD_NOSIMD is
// set, otherwise the best implementation the CPU supports. It is the
// counterpart of ForceGeneric for tests.
func Reset() {
	if os.Getenv(NoSIMDEnv) != "" {
		active = genericImpl
		return
	}
	active = bestImpl()
}

// ForceGeneric switches every kernel to the pure-Go reference
// implementation until Reset. Test-only: not safe while kernel calls are
// in flight on other goroutines.
func ForceGeneric() {
	active = genericImpl
}

// Active names the implementation currently dispatched: "avx2", "sse2"
// or "generic".
func Active() string { return active.name }

// TreeMaskSIMD reports whether TreeMask32 dispatches to a vector kernel.
// Callers use it to decide whether restructuring a batch for the bitmask
// tree walk (one transpose per batch) pays for itself; the generic
// TreeMask32 is correct but slower than the row-major tree walks.
func TreeMaskSIMD() bool { return active.treeMaskVec }

// Axpy computes dst[i] += alpha*x[i], bit-identically to the obvious Go
// loop (multiply then add, rounded separately — never fused). It panics
// if the lengths differ.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("kernel: axpy of len %d and %d", len(dst), len(x)))
	}
	// Short vectors (the K-wide PCA rows, 2-D t-SNE points) run the plain
	// loop right here: below ~12 elements the dispatch indirection and
	// pointer shim cost more than the arithmetic. Bit-identity is
	// unaffected — the loop is the reference computation.
	if len(x) < 12 {
		for i, v := range x {
			dst[i] += alpha * v
		}
		return
	}
	active.axpy(dst, alpha, x)
}

// CenterScale computes dst[i] = (x[i] - mu[i]) / sd[i] — the feature
// scaler's fused standardisation pass. dst == x is allowed (in-place).
// It panics if the lengths differ.
func CenterScale(dst, x, mu, sd []float64) {
	if len(dst) != len(x) || len(mu) != len(x) || len(sd) != len(x) {
		panic(fmt.Sprintf("kernel: centerscale of len %d/%d/%d/%d",
			len(dst), len(x), len(mu), len(sd)))
	}
	if len(dst) == 0 {
		return
	}
	active.centerScale(dst, x, mu, sd)
}

// Sub computes dst[i] = x[i] - mu[i] — row centering. dst == x is
// allowed (in-place). It panics if the lengths differ.
func Sub(dst, x, mu []float64) {
	if len(dst) != len(x) || len(mu) != len(x) {
		panic(fmt.Sprintf("kernel: sub of len %d/%d/%d", len(dst), len(x), len(mu)))
	}
	if len(dst) == 0 {
		return
	}
	active.sub(dst, x, mu)
}

// TreeMask32 is the inner step of the bitmask ("QuickScorer"-style) tree
// walk over 32 samples at once. For every node n it refines the 32
// surviving-leaf bitvectors:
//
//	v[j] &= ^0          if xcols[feats[n]*stride + j] <= thr[n]
//	v[j] &= masks[n]    otherwise
//
// xcols is feature-major (transposed) sample storage: column j of sample
// block starts at xcols[f*stride] for feature f, so the 32 lanes load
// contiguously — no gathers. The caller guarantees
// feats[n]*stride+32 <= len(xcols) for every node (true whenever xcols
// is the tail raw[r0:] of a d×n transposed matrix with r0+32 <= n).
//
// The comparison is exact (IEEE equality of outcomes, NaN compares
// false, matching Go's <=), and the AND lattice is order-free, so SIMD
// and generic paths agree bit-for-bit by construction.
func TreeMask32(v *[32]uint64, thr []float64, masks []uint64, feats []uint32, xcols []float64, stride int) {
	if len(masks) != len(thr) || len(feats) != len(thr) {
		panic(fmt.Sprintf("kernel: treemask arrays of len %d/%d/%d",
			len(thr), len(masks), len(feats)))
	}
	if len(thr) == 0 {
		return
	}
	if active.treeMaskVec {
		treeMask32Vec(v, thr, masks, feats, xcols, stride)
		return
	}
	treeMask32Generic(v, thr, masks, feats, xcols, stride)
}
