package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's clock is the CPU time of its own process, and the process
// runs the system on one core (main sets GOMAXPROCS to 1). So every time it
// reports — an operation's latency, a run's throughput, a set-up — is the
// time the system spent running on its core: the wall-clock time on a
// dedicated core, with the time the host gave that core to other tenants
// (steal) or to other processes left out. On a shared host that time
// changes from run to run by more than any bound could allow.

// cpuNow reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID, exact to
// the nanosecond, unlike getrusage's tick-sampled split).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuSince is the CPU time the process has used since start, a cpuNow
// reading.
func cpuSince(start time.Duration) time.Duration { return cpuNow() - start }

// cpuSample is what the run log reports about the machine: this process's
// CPU time and the whole machine's stolen time, so a run slowed by a busy
// host can be told apart in the log.
type cpuSample struct {
	wall         time.Time
	self         time.Duration // CPU time of this process
	steal, total int64         // /proc/stat jiffies; zero where unreadable
}

func sampleCPU() cpuSample {
	s := cpuSample{wall: time.Now(), self: cpuNow()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuSample{wall: s.wall, self: s.self}
		}
		s.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = v
		}
	}
	return s
}
