package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// gateError marks a wrong output, as opposed to a failed or refused
// request: it fails the run's correctness, not just its error rate.
type gateError struct{ err error }

func (e *gateError) Error() string { return "correctness gate: " + e.err.Error() }
func (e *gateError) Unwrap() error { return e.err }

func wrong(err error) error { return &gateError{err} }

// doFunc performs request i of the workload's input sequence and
// verifies its output.
type doFunc func(ctx context.Context, i int) error

// tally is what one load phase saw.
type tally struct {
	sent, ok, failed, incorrect int
	latMs                       []float64 // verified requests only
	lateMs                      []float64 // generator lateness per request
	firstErr                    error
	wall                        time.Duration
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	t.incorrect += o.incorrect
	t.latMs = append(t.latMs, o.latMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func merge(parts []tally) tally {
	var out tally
	for _, p := range parts {
		out.add(p)
	}
	return out
}

func (t *tally) record(err error, lat, late time.Duration) {
	t.sent++
	t.lateMs = append(t.lateMs, ms(late))
	var ge *gateError
	switch {
	case err == nil:
		t.ok++
		t.latMs = append(t.latMs, ms(lat))
		return
	case errors.As(err, &ge):
		t.incorrect++
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

type scheduled struct {
	i   int
	due time.Time
}

// openLoop sends requests first, first+1, ... on a fixed schedule of
// rate per second for dur, through at most conc requests in flight. A
// request whose turn comes while every connection is busy waits in the
// generator, and its latency still runs from when it was due. It
// returns the tally and the index after the last request scheduled.
func openLoop(ctx context.Context, first int, rate float64, dur time.Duration, conc int, do doFunc) (tally, int) {
	n := max(1, int(rate*dur.Seconds()))
	due := make(chan scheduled) // unbuffered: no hidden queue between generator and connections
	parts := make([]tally, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for s := range due {
				late := time.Since(s.due)
				err := do(ctx, s.i)
				t.record(err, time.Since(s.due), late)
			}
		}(&parts[w])
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		due <- scheduled{i: first + i, due: at}
	}
	close(due)
	wg.Wait()
	out := merge(parts)
	out.wall = time.Since(start)
	return out, first + n
}

// closedLoop keeps conc requests in flight for dur, starting at request
// first; each client sends its next request when the previous one
// completes. It returns the tally and the index after the last request
// sent.
func closedLoop(ctx context.Context, first int, dur time.Duration, conc int, do doFunc) (tally, int) {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([]tally, conc)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := do(ctx, i)
				t.record(err, time.Since(sent), 0)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := merge(parts)
	out.wall = time.Since(start)
	return out, int(next.Load())
}

// closedLoopN sends requests 0..n-1 through conc clients and waits.
func closedLoopN(ctx context.Context, n, conc int, do doFunc) tally {
	var next atomic.Int64
	parts := make([]tally, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				sent := time.Now()
				t.record(do(ctx, i), time.Since(sent), 0)
			}
		}(&parts[w])
	}
	wg.Wait()
	return merge(parts)
}
