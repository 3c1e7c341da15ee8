package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts latency samples to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tail reports the p99 and p99.9 of a latency sample with the number of
// samples beyond each, for reference only: a percentile with fewer than
// ten samples beyond it is no tail and is left out.
func tail(name string, us []float64, out map[string]metric) {
	n := len(us)
	for _, t := range []struct {
		suffix string
		q      float64
	}{{"p99", 0.99}, {"p999", 0.999}} {
		beyond := int(float64(n) * (1 - t.q))
		if beyond < 10 {
			continue
		}
		out[name+"_"+t.suffix+"_us"] = metric{quantile(us, t.q), "us"}
		out[name+"_"+t.suffix+"_beyond"] = metric{float64(beyond), "count"}
	}
}
