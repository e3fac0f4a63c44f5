//go:build linux

// Package cpupin pins OS threads to CPU cores — the cache-locality
// discipline of the serving layer's replica flushers. Pinning is always
// best-effort: failures and out-of-range CPUs are ignored, never surfaced.
package cpupin

import (
	"runtime"
	"syscall"
	"unsafe"
)

// PinThread restricts the calling OS thread to a single CPU via
// sched_setaffinity(2). The caller must have locked its goroutine to the
// thread (runtime.LockOSThread) first, or the mask lands on whichever
// thread happens to run the call. Out-of-range CPUs and syscall failures
// are ignored: affinity is a cache-locality discipline, never a
// correctness requirement, and a daemon in a restricted sandbox (seccomp,
// cpuset) must keep serving unpinned rather than fail.
func PinThread(cpu int) {
	if cpu < 0 || cpu >= runtime.NumCPU() || cpu >= len(cpuSet{})*64 {
		return
	}
	var mask cpuSet
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		0, // 0 = the calling thread
		uintptr(unsafe.Sizeof(mask)),
		uintptr(unsafe.Pointer(&mask[0])))
}

// cpuSet mirrors the kernel's cpu_set_t: a 1024-bit CPU mask.
type cpuSet [16]uint64
