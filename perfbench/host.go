package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuSample is the host's cumulative CPU ticks from /proc/stat: all of
// them, and those the hypervisor gave to other guests (steal).
type cpuSample struct{ steal, total int64 }

// readHostCPU samples /proc/stat; it returns zeros where that file is not
// available, and stolenShare then reports 0.
func readHostCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var c cpuSample
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuSample{}
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// stolenShare is the share of the host's CPU time between a and b that
// went to other guests. A closed loop that keeps every CPU busy loses that
// share of its throughput.
func stolenShare(a, b cpuSample) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
