package main

// The reference machine is a virtual machine whose hypervisor takes a
// varying share of the CPU time its guests ask for. Runs report that
// share on stderr, next to their figures, so a reader can tell a slow
// host from a slow program; it does not enter any metric.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the machine-wide CPU time split of /proc/stat, in ticks.
type cpuTimes struct{ busy, steal uint64 }

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: unexpected %q", line)
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTimes{}, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the CPU time the machine wanted between a
// and b that the hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	s, u := float64(b.steal-a.steal), float64(b.busy-a.busy)
	return ratio(s, s+u)
}

// stealSince returns, for stderr, the steal share since a.
func stealSince(a cpuTimes) string {
	b, err := readCPUTimes()
	if err != nil {
		return "host steal unknown"
	}
	return fmt.Sprintf("host steal %.0f%%", 100*stealShare(a, b))
}
