package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of vs by the exclusive
// method (what Python's statistics.quantiles(vs, n=4) returns, so spreads
// computed here and by the driver agree).  It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// samplesBeyond is how many of samples lie beyond the p-th percentile, to a
// thousandth (100-p is rarely exact in floating point).  The tail-percentile
// rule wants at least ten.
func samplesBeyond(samples int, p float64) float64 {
	return math.Round(float64(samples)*(100-p)*10) / 1000
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSnapshot is the process-wide cost state at one instant; two of them
// bracket a timed round.
type procSnapshot struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
}

func snapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC, gcPause: ms.PauseTotalNs}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// roundResult is one timed pass over a workload's op list.
type roundResult struct {
	ops   []opResult
	seeds int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	// gcs and gcPause are the collector's cycles and stop-the-world time
	// over the round.
	gcs     uint32
	gcPause time.Duration
	traced  bool
}

func (r roundResult) seedsPerSec() float64 { return float64(r.seeds) / r.wall.Seconds() }

// cpuPerSeed is the round's CPU time in microseconds per seed.
func (r roundResult) cpuPerSeed() float64 { return micros(r.cpu) / float64(r.seeds) }

// allocPerSeed is the round's allocation in KiB per seed.
func (r roundResult) allocPerSeed() float64 { return float64(r.alloc) / 1024 / float64(r.seeds) }

// finishRound brackets a round's ops with the cost deltas since before.
func finishRound(before procSnapshot, ops []opResult, traced bool) roundResult {
	after := snapshot()
	r := roundResult{
		ops: ops, traced: traced,
		wall:    after.wall.Sub(before.wall),
		cpu:     after.cpu - before.cpu,
		alloc:   after.alloc - before.alloc,
		gcs:     after.gcs - before.gcs,
		gcPause: time.Duration(after.gcPause - before.gcPause),
	}
	for _, op := range ops {
		r.seeds += op.seeds
	}
	return r
}

// endToEndOf folds the untraced rounds and the set-up times of one run into
// the end-to-end metrics: throughput, CPU and allocation are medians over
// rounds (one noisy-neighbour burst moves one round, not the result), latency
// percentiles pool every op of the run.
func endToEndOf(spec workloadSpec, setups []time.Duration, rounds []roundResult) map[string]float64 {
	var setupS, sps, cpu, alloc, lat []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, r := range rounds {
		sps = append(sps, r.seedsPerSec())
		cpu = append(cpu, r.cpuPerSeed())
		alloc = append(alloc, r.allocPerSeed())
		for _, op := range r.ops {
			lat = append(lat, millis(op.latency))
		}
	}
	sort.Float64s(lat)
	return map[string]float64{
		"setup_s":           median(setupS),
		"seeds_per_s":       median(sps),
		"op_p50_ms":         percentile(lat, 50),
		"op_tail_ms":        percentile(lat, spec.tailPct),
		"cpu_us_per_seed":   median(cpu),
		"alloc_kb_per_seed": median(alloc),
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func metricsObject(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}
