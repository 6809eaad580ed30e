package flightrec

import (
	"testing"
	"time"
)

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // <= 1ms bucket
	h.Observe(3 * time.Millisecond)   // <= 5ms
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Hour) // +Inf
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	wantSum := float64(500*time.Microsecond+2*3*time.Millisecond+2*time.Hour) / float64(time.Millisecond)
	if snap.SumMs != wantSum {
		t.Fatalf("sum = %v ms, want %v", snap.SumMs, wantSum)
	}
	want := []BucketCount{{LeMs: 1, N: 1}, {LeMs: 5, N: 2}, {LeMs: -1, N: 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
}

// TestHistogramQuantile checks the bucket-upper-bound quantile estimate
// the stall watchdog and the Prometheus p99 gauge are built on.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}

	// 90 fast observations in the 5ms bucket, 10 slow in the 1000ms one.
	for i := 0; i < 90; i++ {
		h.Observe(4 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5 * time.Millisecond},
		{0.90, 5 * time.Millisecond},
		{0.99, 1000 * time.Millisecond},
		{1.00, 1000 * time.Millisecond},
		// Out-of-range q clamps rather than misbehaves.
		{-1, 5 * time.Millisecond},
		{2, 1000 * time.Millisecond},
	}
	snap := h.Snapshot()
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
		if got := snap.Quantile(c.q); got != c.want {
			t.Errorf("snapshot Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}

	// Everything in the overflow bucket saturates to twice the largest
	// finite bound.
	var inf Histogram
	inf.Observe(2 * time.Hour)
	if got, want := inf.Quantile(0.5), 2*600_000*time.Millisecond; got != want {
		t.Errorf("+Inf-bucket Quantile = %v, want %v", got, want)
	}
	if got, want := inf.Snapshot().Quantile(0.5), 2*600_000*time.Millisecond; got != want {
		t.Errorf("+Inf-bucket snapshot Quantile = %v, want %v", got, want)
	}

	if allocs := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); allocs > 0 {
		t.Errorf("Quantile allocates %.1f objects per op, ceiling is 0", allocs)
	}
}
