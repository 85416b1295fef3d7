package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine a latency measured at light load is mostly the
// time the hypervisor takes to put a halted vCPU back on a core when a
// packet arrives, and that varies about 2x with other tenants' load.
// While the serve workload measures, a child process keeps every vCPU
// busy at SCHED_IDLE priority, as booting with idle=poll would: the
// vCPUs never halt, and any runnable thread of the measured process
// preempts the spinner at once, so it takes no CPU time the
// measurement would have used.
const spinCmd = "spin"

// spinMain is the spinner child's entry point: one idle-priority busy
// loop per CPU, until the parent kills it.
func spinMain() int {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			if err := setIdlePriority(); err != nil {
				// Spinning at normal priority would steal CPU from the
				// measurement; do nothing instead.
				fmt.Fprintf(os.Stderr, "perfbench spin: %v\n", err)
				return
			}
			n := 0
			for {
				n++
			}
		}()
	}
	select {}
}

// setIdlePriority moves the calling thread to SCHED_IDLE.
func setIdlePriority() error {
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
	}
	return nil
}

// startSpinner starts the spinner child and returns the function that
// kills it and waits for it to exit.
func startSpinner(cfg *config) (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, spinCmd)
	cmd.Stderr = cfg.log
	// The spinner must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}, nil
}
