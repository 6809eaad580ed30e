package flightrec

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// StartProgress launches a goroutine that prints a one-line campaign
// status to w every `every` (default 2s): slots done/total, commit
// rate, ETA, and quarantine trips. The returned stop function is
// idempotent; it halts the ticker and prints one final line.
//
// The reporter only reads the ring's counters, so it never perturbs
// the campaign it is watching. A nil ring reports nothing.
func (r *Ring) StartProgress(w io.Writer, every time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if every <= 0 {
		every = 2 * time.Second
	}
	start := time.Now()
	line := func() {
		r.mu.Lock()
		done, total, trips := r.t.c[nSlotsDone], r.t.c[nSlotsTotal], r.t.c[nQuarantineTrips]
		r.mu.Unlock()
		elapsed := time.Since(start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(done) / elapsed
		}
		eta := "?"
		if rate > 0 && total > done {
			d := time.Duration(float64(total-done) / rate * float64(time.Second))
			eta = d.Round(time.Second).String()
		} else if total > 0 && done >= total {
			eta = "0s"
		}
		fmt.Fprintf(w, "progress: %d/%d slots (%s) · %.1f slots/s · ETA %s · %d quarantined\n",
			done, total, percent(done, total), rate, eta, trips)
	}

	doneCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				line()
			case <-doneCh:
				return
			}
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			close(doneCh)
			wg.Wait()
			line()
		})
	}
}

func percent(done, total int64) string {
	if total <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(done)/float64(total))
}
