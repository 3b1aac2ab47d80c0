package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbmvolt/internal/board"
	"hbmvolt/internal/hbm"
)

// TestRunPortsWorkerPool checks that pooled execution is result-
// identical to sequential execution across multiple ports, patterns and
// batch repetitions — the pool reorders scheduling, never results. Four
// workers over a two-point grid put two drivers on one pool.
func TestRunPortsWorkerPool(t *testing.T) {
	run := func(workers int) *ReliabilityResult {
		b := testBoard(t, board.Config{Scale: 256, Seed: 8})
		res, err := RunReliability(ReliabilityConfig{
			Board:     b,
			Ports:     []hbm.PortID{1, 4, 5, 18, 19, 20, 31},
			Grid:      []float64{0.93, 0.89},
			BatchSize: 4,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		sp, pp := seq.Points[i], par.Points[i]
		if sp.MeanFlips != pp.MeanFlips || sp.Flips10 != pp.Flips10 || sp.Flips01 != pp.Flips01 {
			t.Fatalf("pooled execution changed results at %vV: %+v vs %+v", sp.Volts, sp, pp)
		}
		for j := range sp.Observations {
			so, po := sp.Observations[j], pp.Observations[j]
			if so.Port != po.Port || so.MeanFlips != po.MeanFlips || so.MeanFaulty != po.MeanFaulty {
				t.Fatalf("port %d at %vV differs under pool", so.Port, sp.Volts)
			}
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("pooled execution changed batch statistics")
	}
}

// TestPassPoolLabels: a helper is not labeled by the point it helps,
// so each pass it takes must run under the labels of the point that
// offered it — otherwise CPU profiles lose their per-voltage-band split.
// The helper's pass blocks while a goroutine profile is taken, and the
// helper's stack must carry the driver's labels.
func TestPassPoolLabels(t *testing.T) {
	pool := newPassPool(context.Background(), 2, 1) // one driver, one helper
	defer pool.wait()
	defer pool.retire(context.Background())
	waitIdleHelpers(t, 1)

	running := make(chan struct{})
	release := make(chan struct{})
	var prof bytes.Buffer
	labels := pprof.Labels("hbmvolt_mode", "isolated", "hbmvolt_vband", voltageBand(0.85))
	pprof.Do(context.Background(), labels, func(ctx context.Context) {
		pprof.Do(ctx, pprof.Labels("hbmvolt_pattern", "all1"), func(ctx context.Context) {
			driver := goroutineID()
			pool.run(ctx, 2, func(i int) {
				if goroutineID() != driver {
					running <- struct{}{}
					<-release
					return
				}
				// The driver claims pass 0 and offers pass 1 first.
				select {
				case <-running:
				case <-time.After(10 * time.Second):
					t.Error("the idle helper never took the offered pass")
					close(release)
					return
				}
				if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
					t.Error(err)
				}
				close(release)
			})
		})
	})

	found := false
	for _, rec := range profileRecords(prof.String()) {
		if !strings.Contains(rec, "TestPassPoolLabels") || !strings.Contains(rec, "(*passPool).help") {
			continue
		}
		found = true
		for _, want := range []string{`"hbmvolt_mode":"isolated"`, `"hbmvolt_vband":"0.85-0.90"`, `"hbmvolt_pattern":"all1"`} {
			if !strings.Contains(rec, want) {
				t.Errorf("helper runs a pass without label %s:\n%s", want, rec)
			}
		}
	}
	if !found {
		t.Fatalf("no helper running a pass in the goroutine profile:\n%s", prof.String())
	}
}

// profileRecords splits a debug=1 goroutine profile into its records:
// "N @ pcs", then "# labels: {...}" when the goroutines carry labels,
// then the frames. Identical stacks with identical labels share one.
func profileRecords(prof string) []string { return strings.Split(prof, "\n\n") }

// waitIdleHelpers waits until n pass-pool helpers are parked waiting for
// an offer.
func waitIdleHelpers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var prof bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
			t.Fatal(err)
		}
		idle := 0
		for _, rec := range profileRecords(prof.String()) {
			// Runtime frames are hidden, so a parked helper's top frame
			// is help itself; a busy one has the pass above it.
			_, frames, _ := strings.Cut(rec, "\n#\t")
			if top, _, _ := strings.Cut(frames, "\n"); strings.Contains(top, "(*passPool).help") {
				count, _, _ := strings.Cut(rec, " @")
				c, err := strconv.Atoi(strings.TrimSpace(count[strings.LastIndex(count, "\n")+1:]))
				if err != nil {
					t.Fatalf("unparsable profile record %q", rec)
				}
				idle += c
			}
		}
		if idle >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers idle after 10s", idle, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineID parses the calling goroutine's ID from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}
