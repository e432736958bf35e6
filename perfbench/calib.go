package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. CPU time leaves out the time the hypervisor
// steals, but not the slowdown other tenants cause on the same physical
// cores (shared caches, hyperthread siblings, clock speed), which on the
// host the benchmark was tuned on moved the CPU time of the same work by
// a fifth from one minute to the next. So every measured pass also times
// a fixed piece of work that is part of this benchmark, not of the code
// under test, and scales cpu_ms_per_op by
//
//	calReferenceMs / (median CPU time of the calibration in this pass)
//
// to the speed of a reference host on which the calibration takes
// calReferenceMs. A change to the program cannot move the calibration,
// so it moves the scaled figure as much as the raw one.

// calReferenceMs is the calibration's CPU time on the reference host: the
// median over runs on the 2-vCPU Xeon virtual machine the benchmark was
// tuned on.
const calReferenceMs = 4.8

// calBytes is the size of each calibration operand: larger than a core's
// L1 data cache, so the calibration, like the int8 kernels, depends on
// the cache hierarchy as well as the core, and small next to the
// in-process workloads' resident set, which it joins.
const calBytes = 256 << 10

// calPasses is how many dot products one calibration computes.
const calPasses = 16

var calA, calB = calOperands()

// calSink keeps the calibration's result live.
var calSink int32

func calOperands() ([]int8, []int8) {
	a, b := make([]int8, calBytes), make([]int8, calBytes)
	x := uint32(1)
	for i := range a {
		x = x*1664525 + 1013904223
		a[i] = int8(x >> 24)
		b[i] = int8(x >> 16)
	}
	return a, b
}

// calibrationWork is int8 dot products with int32 accumulation, the
// arithmetic of the kernels' inner loops, over operands that do not fit
// in the core's private caches.
func calibrationWork() int32 {
	var acc int32
	a, b := calA, calB[:len(calA)]
	for p := 0; p < calPasses; p++ {
		for i := 0; i+3 < len(a); i += 4 {
			acc += int32(a[i])*int32(b[i]) + int32(a[i+1])*int32(b[i+1]) +
				int32(a[i+2])*int32(b[i+2]) + int32(a[i+3])*int32(b[i+3])
		}
	}
	return acc
}

// threadCPU is the calling thread's CPU time, to the nanosecond.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// calibrator collects calibration samples over a run.
type calibrator struct {
	ms []float64
}

// sample runs the calibration once on a locked thread and records its
// CPU time.
func (c *calibrator) sample() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return err
	}
	calSink += calibrationWork()
	t1, err := threadCPU()
	if err != nil {
		return err
	}
	c.ms = append(c.ms, msOf((t1 - t0).Nanoseconds()))
	return nil
}

// scale is the factor that takes this run's CPU times to the reference
// host's speed.
func (c *calibrator) scale() float64 {
	return calReferenceMs / median(c.ms)
}

func (c *calibrator) String() string {
	return fmt.Sprintf("calibration: median %.3f ms over %d samples, reference %.3f ms, scale %.4f",
		median(c.ms), len(c.ms), calReferenceMs, c.scale())
}

// during samples the calibration every interval until stop is closed,
// and returns a channel closed when it has stopped. A sampling error
// stops the sampler; the run then has fewer samples.
func (c *calibrator) during(interval time.Duration, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.sample() != nil {
					return
				}
			}
		}
	}()
	return done
}
