package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (Hyndman-Fan type 7, the
// "inclusive" method of Python's statistics.quantiles). It is NaN for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailLevels are the percentiles a timing tail is reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLevels that has
// at least ten of n samples beyond it, and false when even the median
// has fewer than ten beyond it (n < 20).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// timing summarizes one timing sample: the sample count, the median
// with its quartiles, and the tail percentile the sample size supports.
func timing(name, unit string, xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	q1, q3 := quartiles(xs)
	out := fmt.Sprintf("%s: n=%d p50=%.6g %s (quartiles %.6g, %.6g)", name, len(xs), median(xs), unit, q1, q3)
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		out += fmt.Sprintf(" p%g=%.6g %s", p, quantile(xs, p/100), unit)
	} else {
		out += " (too few samples for a tail percentile)"
	}
	return out
}

// tally counts attempted and failed runs or jobs, keeping the first
// few failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

// maxReasons bounds the failure reasons a tally keeps.
const maxReasons = 8

// add records one attempt; a non-empty why marks it failed.
func (t *tally) add(why string) {
	t.attempted++
	if why == "" {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, why)
	}
}

// ratio is failed / attempted (0 with nothing attempted).
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// fmtList renders samples compactly for a report line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
