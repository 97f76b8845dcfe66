package main

import (
	"fmt"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: bit i of word i/64 is CPU i.
type cpuMask [16]uint64

func (m *cpuMask) count() (n int) {
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// firstN returns the mask of the n lowest CPUs in m.
func (m *cpuMask) firstN(n int) (out cpuMask) {
	for i := 0; i < len(m)*64 && n > 0; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out[i/64] |= 1 << (i % 64)
			n--
		}
	}
	return out
}

func affinity(nr uintptr, tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(nr, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// The CPUs and GOMAXPROCS the process was started with.
var (
	startMask  cpuMask
	startProcs = runtime.GOMAXPROCS(0)
)

func init() { _ = affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &startMask) }

// confine restricts the process to the n lowest CPUs it was started on (all
// of them if it has no more than n, or if n is 0) and sets GOMAXPROCS to match. It moves
// every thread the process has; a thread started later inherits the mask of
// the thread that starts it, so nothing escapes. It returns the number of
// CPUs the process now runs on.
//
// The wire workloads are confined to one CPU: a request over loopback is a
// chain of hand-offs (client, kernel, server and back), never two things at
// once, and on a second CPU each hand-off becomes a cross-CPU wake-up whose
// cost is the hypervisor's and changes by half with the neighbours' load
// (README, "One CPU for the wire workloads").
func confine(n int) int {
	if n <= 0 { // every CPU the process was started on
		n = len(startMask) * 64
	}
	have := startMask.count()
	if have == 0 { // no affinity call on this kernel: leave the threads alone
		return runtime.NumCPU()
	}
	n = min(n, have)
	mask := startMask.firstN(n)
	runtime.GOMAXPROCS(min(n, startProcs))
	// Twice: a thread born during the first pass may have copied a mask not
	// yet changed; its parent is done by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, _ := os.ReadDir("/proc/self/task")
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				_ = affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &mask) // the thread may have exited
			}
		}
	}
	return n
}

// cpuTimes returns the process's user and system CPU time so far, in µs.
// Client and server share the process, so a delta covers both.
func cpuTimes() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime), us(ru.Stime)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// printFingerprint says what machine the numbers belong to. A later run on
// a different fingerprint is a different experiment, not a regression.
func printFingerprint(outDir string) {
	fs := fsType(outDir)
	fmt.Printf("# machine: %s %s/%s nproc=%d GOMAXPROCS=%d kernel=%s wal_fs=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernelRelease(), fs)
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "warning: fewer than 2 CPUs: inproc-multi-hot's two goroutines and every .2t/.2w/.2c rung time-share one core")
	}
	if fs == "tmpfs" {
		fmt.Fprintln(os.Stderr, "warning: the WAL directory is on tmpfs: fsync is free there, so durable-mixed measures no device")
	}
}
