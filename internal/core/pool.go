package core

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// passPool is a sweep's one set of Workers goroutines for fill/check
// passes: its point drivers plus, when the grid has fewer points than
// Workers, idle helpers to make up the count. A driver runs its own
// point's (port × rep) passes and offers each batch rep to any goroutine
// of the pool that is idle; a driver whose points are done becomes such
// a helper. So workers with no point left help finish the points still
// running — near V_critical one point can hold most of a sweep's work —
// while no more than Workers passes ever run at once, and a sweep whose
// drivers are all busy pays no handoff at all (passes above the
// guardband take microseconds). Batch reps form a barrier because the
// batch-rep register is device-global state.
//
// A nil pool runs every pass inline on the calling driver.
type passPool struct {
	size    int
	offers  chan *passBatch // unbuffered: a send succeeds only to an idle goroutine
	drivers atomic.Int64    // drivers that have not retired
	helpers sync.WaitGroup
}

// passBatch is one run call: passes 0..n-1, claimed one at a time by
// the driver and the helpers that took its offer.
type passBatch struct {
	// ctx carries the submitting point's profiler labels; helpers run
	// the passes under them.
	ctx  context.Context
	n    int
	run  func(i int)
	next atomic.Int64
	// done counts unfinished passes, not helpers: a helper that takes
	// the offer only after every pass is claimed — it may wait for a
	// CPU — finds nothing to do, and the driver never waits for it.
	done sync.WaitGroup
}

// claim returns the next unclaimed pass, or -1 once all are claimed.
func (b *passBatch) claim() int {
	if i := int(b.next.Add(1) - 1); i < b.n {
		return i
	}
	return -1
}

// newPassPool returns the pool of a sweep with the given worker and
// driver counts, starting workers-drivers helpers under ctx, or nil
// (inline execution) for one worker or fewer. Every driver must call
// retire once its points are done; wait then returns once the helpers
// have exited.
func newPassPool(ctx context.Context, workers, drivers int) *passPool {
	if workers <= 1 {
		return nil
	}
	p := &passPool{size: workers, offers: make(chan *passBatch)}
	p.drivers.Store(int64(drivers))
	for w := drivers; w < workers; w++ {
		p.helpers.Add(1)
		go func() {
			defer p.helpers.Done()
			p.help(ctx)
		}()
	}
	return p
}

// help works on offered batches until the last driver retires. ctx
// holds the goroutine's own profiler labels, restored after each batch.
func (p *passPool) help(ctx context.Context) {
	for b := range p.offers {
		// Helpers are not labeled by the point they help, so each batch
		// runs under the labels of the point that offered it.
		pprof.SetGoroutineLabels(b.ctx)
		for i := b.claim(); i >= 0; i = b.claim() {
			b.run(i)
			b.done.Done()
		}
		pprof.SetGoroutineLabels(ctx)
	}
}

// retire ends one driver's points. All but the last driver to retire
// then help the drivers still running, until the last one retires.
func (p *passPool) retire(ctx context.Context) {
	if p == nil {
		return
	}
	if p.drivers.Add(-1) == 0 {
		close(p.offers)
		return
	}
	p.help(ctx)
}

// wait returns once the helpers started by newPassPool have exited.
func (p *passPool) wait() {
	if p != nil {
		p.helpers.Wait()
	}
}

// run calls fn(i) for every i in [0, n) and returns when all calls have
// finished: on the calling driver and on any idle goroutines of the
// pool (under ctx's profiler labels), or inline in index order on a nil
// pool. fn must be safe to call concurrently for distinct i.
func (p *passPool) run(ctx context.Context, n int, fn func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := &passBatch{ctx: ctx, n: n, run: fn}
	b.done.Add(n)
	offered := 0
	for i := b.claim(); i >= 0; i = b.claim() {
		// Offer the rest of the batch to an idle goroutine before each
		// pass, so one that goes idle mid-batch still joins.
		if offered < min(n, p.size)-1 && int(b.next.Load()) < n {
			select {
			case p.offers <- b:
				offered++
			default:
			}
		}
		fn(i)
		b.done.Done()
	}
	b.done.Wait()
}
