package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metric is one measured value as it appears in a results record.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// recorder collects named sample series from concurrent goroutines.
type recorder struct {
	mu sync.Mutex
	s  map[string][]float64
}

func newRecorder() *recorder { return &recorder{s: make(map[string][]float64)} }

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.s[name] = append(r.s[name], v)
	r.mu.Unlock()
}

// ms records a duration in milliseconds.
func (r *recorder) ms(name string, d time.Duration) { r.add(name, msOf(d)) }

// get returns a copy of one series.
func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.s[name]...)
}

// q summarizes one series as a metric at quantile q.
func (r *recorder) q(name string, q float64, unit string) metric {
	xs := r.get(name)
	return metric{Value: quantile(xs, q), Unit: unit, Samples: len(xs)}
}

// sum totals one series.
func (r *recorder) sum(name string) float64 {
	total := 0.0
	for _, v := range r.get(name) {
		total += v
	}
	return total
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
