package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"simcal/internal/core"
)

func appendBits(b []byte, v float64) []byte {
	return strconv.AppendUint(b, math.Float64bits(v), 16)
}

// fingerprint hashes a result's whole trajectory by exact float bits,
// leaving out every wall-clock field: equal fingerprints mean
// bitwise-equal calibrations.
func fingerprint(res *core.Result) string {
	var b []byte
	b = append(b, res.Algorithm...)
	b = strconv.AppendInt(append(b, ' '), int64(res.Evaluations), 10)
	b = appendBits(append(b, ' '), res.Best.Loss)
	b = append(append(b, ' '), pointKey(res.Best.Point)...)
	for _, s := range res.History {
		b = appendBits(append(b, '\n'), s.Loss)
		b = append(append(b, ' '), pointKey(s.Point)...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// infCount counts evaluations the core normalised to +Inf: failed,
// NaN or -Inf simulator outcomes.
func infCount(res *core.Result) int {
	n := 0
	for _, s := range res.History {
		if math.IsInf(s.Loss, 1) {
			n++
		}
	}
	return n
}

// timeToTarget returns how long the calibration took to reach the
// best-so-far loss its own trajectory holds at half its evaluation
// budget. The trajectory is bitwise fixed for a given seed, so the
// target is too; only the time to reach it varies.
func timeToTarget(res *core.Result) time.Duration {
	half := len(res.History) / 2
	if half == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, s := range res.History[:half] {
		best = math.Min(best, s.Loss)
	}
	for _, s := range res.History {
		if s.Loss <= best {
			return s.Elapsed
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLine reports the highest whole percentile of xs that still has at
// least ten samples beyond it, or "" when there are too few samples.
func tailLine(name string, xs []float64, unit string) string {
	n := len(xs)
	if n < 20 {
		return ""
	}
	p := int(math.Floor(100 * float64(n-10) / float64(n)))
	return fmt.Sprintf("%s p%d = %.6g %s (n=%d)", name, p, quantile(xs, float64(p)/100), unit, n)
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
