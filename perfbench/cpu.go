package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The gated times are CPU times of the processes under test, not wall
// times. On a virtual machine whose vCPUs the hypervisor takes away for
// a share of the time that changes from minute to minute (steal), a wall
// time measures the neighbours as much as the program; the kernel's
// per-thread run time leaves stolen time out.

// selfCPU is the CPU time this process has used so far, all threads,
// user and system.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU is the CPU time process pid has used so far: the run time of
// each of its threads from /proc/<pid>/task/<tid>/schedstat, which is in
// nanoseconds (/proc/<pid>/stat counts 10 ms ticks). Go processes keep
// their threads, so no thread's time is lost to its exit.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("process %d has no schedstat", pid)
	}
	var ns int64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		ns += parseSchedstat(raw)
	}
	return time.Duration(ns), nil
}

// parseSchedstat returns the first field of a schedstat line, the
// nanoseconds the thread has run; 0 when the line is malformed.
func parseSchedstat(raw []byte) int64 {
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// cpuOf is the CPU time the processes have used so far.
func cpuOf(ps []*proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range ps {
		d, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// hostTicks reads the machine's stolen and total CPU time, in ticks,
// from the first line of /proc/stat.
func hostTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
