package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (an idle layer reports 0 work per unit).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promScrape is the parsed text of a /metrics page.
type promScrape map[string]float64

// parseProm reads the counters, _sum/_count and cumulative _bucket series
// of a /metrics page. Buckets are keyed "name_bucket|le".
func parseProm(text string) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		if i := strings.Index(key, `{le="`); i >= 0 {
			key = key[:i] + "|" + strings.TrimSuffix(key[i+5:], `"}`)
		}
		out[key] += v
	}
	return out, sc.Err()
}

// merge sums another scrape into s (federation-wide totals).
func (s promScrape) merge(o promScrape) {
	for k, v := range o {
		s[k] += v
	}
}

// delta returns after−before for one series.
func delta(before, after promScrape, name string) float64 { return after[name] - before[name] }

// procCPU is a process's CPU time: the sum over its threads of the time
// on CPU that /proc/<pid>/task/<tid>/schedstat counts in nanoseconds
// (utime and stime in /proc/<pid>/stat count 10 ms ticks, too coarse for
// a daemon's set-up).
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, fmt.Errorf("schedstat: malformed %q", raw)
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// selfCPU is this process's CPU time (user and system, every thread)
// since it started.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procPeakRSS reads a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status %d: no VmHWM", pid)
}
