package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
)

// percentile returns the p-th percentile of xs (0 <= p <= 100) by
// linear interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise reports 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is a process-wide resource reading; differences of two
// snapshots attribute CPU, GC CPU and allocation to the code between.
type runtimeSnap struct {
	cpu, gcCPU, alloc float64
}

var runtimeSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSnap{
		cpu:   timeval(ru.Utime) + timeval(ru.Stime),
		gcCPU: s[0].Value.Float64(),
		alloc: float64(s[1].Value.Uint64()),
	}
}

func timeval(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB reports the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}
