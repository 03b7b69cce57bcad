package main

import (
	"bytes"
	"os"
	"strconv"
)

// The reference machine is a 2-vCPU guest on a shared host. In spells of
// seconds to minutes the host withholds the vCPUs (steal time), by up to a
// quarter of the time the guest wanted to run: wall times stretch while
// CPU times do not. A run reads how much was withheld during each set-up
// and each timed phase and leaves it out of the set-up time and the
// throughput (see endToEndResult).

// cpuTicks is the machine's CPU time since boot over every vCPU, in clock
// ticks, from the aggregate line of /proc/stat: busy is the time the vCPUs
// ran (user, nice, system, irq, softirq), steal the time they wanted to
// run and the host ran something else.
type cpuTicks struct{ busy, steal int64 }

// readCPUTicks reads /proc/stat; the zero value where it cannot be read,
// which makes every stolen share 0.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal ...
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var v [9]int64
	for i := 1; i < len(v); i++ {
		if v[i], err = strconv.ParseInt(string(f[i]), 10, 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stolenShare is the share of the CPU time the machine wanted between a
// and b that the host withheld: steal ÷ (busy + steal). Stretched by the
// host alone, an interval of wall time w holds w·(1 − share) of the
// machine's own time. Over an interval of a second /proc/stat's 10-ms
// ticks read it to about 0.01.
func stolenShare(a, b cpuTicks) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal <= 0 || busy < 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
