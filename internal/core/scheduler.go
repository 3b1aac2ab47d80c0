package core

// The sweep scheduler: board-fleet parallelism for Algorithm 1 sweeps.
//
// A reliability sweep is embarrassingly parallel across voltage points
// and, within a batch rep of a point, across ports — each pass writes a
// pattern through its own port and reads it back, and every random draw
// underneath (cell critical voltages, metastability jitter, sparse
// row realizations, aggregate count draws) is a pure function of (seed,
// PC, address, rep, voltage), never of evaluation order. The scheduler
// exploits both. Board clones are point drivers: each takes grid points
// from a shared feed, programs its rail and runs the point's (port ×
// rep) fill/check passes, offering them to whichever of the sweep's
// Workers goroutines is idle (passPool) — a driver whose points are
// done, or a spare worker when the grid has fewer points than Workers.
// Workers is therefore the sweep's whole CPU budget, and a worker whose
// own points are done helps finish the others — which matters because
// the cost of a point explodes toward V_critical, so one point near the
// bottom of the ladder can dominate a sweep. Because
// the draws are keyed rather than streamed, the output is bit-identical
// to the sequential path at any worker count — the determinism tests
// pin this across worker counts, port sets and patterns.
//
// Cloned boards share the memoized analytic rate atlas (same config
// fingerprint), so the fleet duplicates electrical state but never
// analytic work.

import (
	"context"
	"sync"

	"hbmvolt/internal/board"
)

// SweepProgress reports one completed voltage point of a running sweep.
// The JSON field names are the wire format of the sweep service's event
// stream (internal/service), so they are part of the API surface.
type SweepProgress struct {
	// Done is the number of completed points so far (monotone, 1-based);
	// Total is the grid size. Both are omitted from JSON when zero, so
	// terminal service events carry no vestigial counters.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Volts is the completed point's voltage; under a sharded sweep
	// points complete out of grid order.
	Volts float64 `json:"volts,omitempty"`
	// Crashed marks a point below V_critical (the board was power
	// cycled).
	Crashed bool `json:"crashed,omitempty"`
	// MeanFlips is the point's batch-mean flip count over all ports and
	// patterns. Zero for power-sweep progress.
	MeanFlips float64 `json:"mean_flips,omitempty"`
	// Watts is the measured rail power of a completed power-sweep point.
	// Zero for reliability-sweep progress.
	Watts float64 `json:"watts,omitempty"`
}

// ProgressFunc receives sweep progress. Calls are serialized; the
// callback must not invoke the scheduler reentrantly.
type ProgressFunc func(SweepProgress)

// progressTracker serializes completion callbacks and owns the monotone
// Done counter.
type progressTracker struct {
	mu    sync.Mutex
	done  int
	total int
	fn    ProgressFunc
}

func (p *progressTracker) completed(pt VoltagePoint) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.fn(SweepProgress{
		Done:      p.done,
		Total:     p.total,
		Volts:     pt.Volts,
		Crashed:   pt.Crashed,
		MeanFlips: pt.MeanFlips,
	})
}

// runSharded drives the fleet: one driver goroutine per board, in a
// pass pool of passWorkers goroutines. Grid indices flow through an
// unbuffered channel so a cancelled context stops dispatch immediately;
// each driver owns its board exclusively, writes results into its grid
// slot, and then helps the drivers still running; the first error
// cancels the rest of the sweep.
func runSharded(ctx context.Context, cfg *ReliabilityConfig, res *ReliabilityResult, prog *progressTracker, passWorkers, drivers int) (err error) {
	boards := make([]*board.Board, drivers)
	boards[0] = cfg.Board
	for w := 1; w < drivers; w++ {
		b, cerr := cfg.Board.Clone()
		if cerr != nil {
			// Restore the clones built so far before bailing.
			for _, built := range boards[:w] {
				restoreNominal(built, &err)
			}
			if err == nil {
				err = cerr
			}
			return err
		}
		boards[w] = b
	}
	defer func() {
		for _, b := range boards {
			restoreNominal(b, &err)
		}
	}()

	pool := newPassPool(ctx, passWorkers, drivers)
	defer pool.wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(werr error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = werr
		}
		errMu.Unlock()
		cancel()
	}

	tasks := make(chan int)
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func(b *board.Board) {
			defer wg.Done()
			defer pool.retire(ctx)
			for i := range tasks {
				pt, perr := runVoltagePoint(ctx, b, cfg, pool, cfg.Grid[i])
				if perr != nil {
					fail(perr)
					return
				}
				res.Points[i] = pt
				prog.completed(pt)
			}
		}(boards[w])
	}

feed:
	for i := range cfg.Grid {
		select {
		case tasks <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return nil
}
