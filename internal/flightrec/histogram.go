package flightrec

import (
	"sync/atomic"
	"time"
)

// bucketBoundsMs are the shared upper bounds (inclusive, milliseconds)
// for every duration histogram. Fixed at compile time so Observe never
// allocates; the final implicit bucket is +Inf. The range spans one
// packet RTT (~1ms virtual) up to a whole 45-minute VP slot.
var bucketBoundsMs = [...]int64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 30_000, 60_000, 180_000, 600_000,
}

// Histogram is a bounded, allocation-free duration histogram: a fixed
// bucket array of atomics plus count and sum. Durations may be virtual
// (netsim clock deltas) or wall; the caller decides which section of
// the snapshot it belongs to.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [len(bucketBoundsMs) + 1]atomic.Int64
}

// Observe records one duration. Safe for concurrent use; never
// allocates.
func (h *Histogram) Observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(bucketBoundsMs) && ms > bucketBoundsMs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Add folds every observation of o into h (the fleet view sums
// campaign histograms this way).
func (h *Histogram) Add(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sumNs.Add(o.sumNs.Load())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	return h.count.Load()
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q
// <= 1) as a duration: the inclusive upper bound of the first bucket
// whose cumulative count reaches q of the total. Observations in the
// +Inf bucket saturate to twice the largest finite bound. Returns 0
// when the histogram is empty. Never allocates; safe for concurrent
// use with Observe (the answer is approximate under concurrency, which
// is fine for its consumers — stall thresholds and scrape gauges).
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [len(bucketBoundsMs) + 1]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return quantile(&counts, h.count.Load(), q)
}

func quantile(counts *[len(bucketBoundsMs) + 1]int64, total int64, q float64) time.Duration {
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, n := range counts {
		cum += n
		if cum >= target {
			if i < len(bucketBoundsMs) {
				return time.Duration(bucketBoundsMs[i]) * time.Millisecond
			}
			break
		}
	}
	return 2 * time.Duration(bucketBoundsMs[len(bucketBoundsMs)-1]) * time.Millisecond
}

// BucketCount is one occupied histogram bucket in a snapshot. LeMs is
// the bucket's inclusive upper bound in milliseconds; -1 means +Inf.
type BucketCount struct {
	LeMs int64 `json:"le_ms"`
	N    int64 `json:"n"`
}

// HistogramSnapshot is the serializable form of a Histogram. Only
// occupied buckets are listed, in ascending bound order.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	SumMs   float64       `json:"sum_ms"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may or may not be included; for deterministic sections the
// caller snapshots after the campaign finishes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumMs: float64(h.sumNs.Load()) / float64(time.Millisecond),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < len(bucketBoundsMs) {
			le = bucketBoundsMs[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{LeMs: le, N: n})
	}
	return s
}

// Quantile is Histogram.Quantile over a snapshot (for instance a fleet
// sum of several campaigns' histograms).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	var counts [len(bucketBoundsMs) + 1]int64
	for _, b := range s.Buckets {
		i := len(bucketBoundsMs)
		for j, le := range bucketBoundsMs {
			if le == b.LeMs {
				i = j
				break
			}
		}
		counts[i] += b.N
	}
	return quantile(&counts, s.Count, q)
}
