package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the CPU times in /proc/stat and
// /proc/<pid>/stat (USER_HZ). Linux fixes it at 100 on every
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	Total, Steal uint64
}

// parseHostCPU reads the aggregate cpu line of a /proc/stat document.
// Total sums user, nice, system, idle, iowait, irq, softirq and steal;
// the guest columns are already inside user and nice, so they are not
// added again.
func parseHostCPU(stat string) (hostCPU, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return hostCPU{}, fmt.Errorf("/proc/stat cpu line has %d fields, need 9", len(f))
		}
		var h hostCPU
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("/proc/stat cpu field %d: %w", i, err)
			}
			h.Total += v
		}
		h.Steal, _ = strconv.ParseUint(f[8], 10, 64)
		return h, nil
	}
	return hostCPU{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two samples; 0 when no time passed.
func stealShare(before, after hostCPU) float64 {
	if after.Total <= before.Total {
		return 0
	}
	return float64(after.Steal-before.Steal) / float64(after.Total-before.Total)
}

// parseProcCPU returns utime+stime of a /proc/<pid>/stat document. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("/proc/<pid>/stat: no command name")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/<pid>/stat: %d fields after the command name, need 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/<pid>/stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/<pid>/stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

func readProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcCPU(string(b))
}

// parseVmHWM returns the peak resident set size in bytes from a
// /proc/<pid>/status document.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("/proc/<pid>/status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/<pid>/status VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("/proc/<pid>/status has no VmHWM line")
}

// readPeakRSS reads VmHWM of a process ("self" for this one).
func readPeakRSS(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// selfCPU is this process's user+sys CPU time (getrusage), which
// excludes time the hypervisor stole from it.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel is the first "model name" of /proc/cpuinfo, for the run
// header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
