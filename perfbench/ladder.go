package main

import (
	"fmt"
	"runtime"
	"time"

	"hbmvolt"
	"hbmvolt/internal/axi"
	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/fleet"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/service"
)

// The ladder replays a workload's first generated reliability requests
// below the service, one rung per layer: board build, the scheduler's
// whole sweep, then at each of the request's lowest ladderPoints
// voltages the fault kernel (enumeration), the pattern mask pass and
// the AXI bulk fill/check. It runs in a process of its own, so no
// memo is warm from the workload's run.

const (
	ladderRequests = 6
	ladderPoints   = 4
)

// ladderInputs regenerates the reliability requests the workload's
// timed phase starts with (sweep-warm: its first distinct keys;
// campaign-repro: the reliability cells of its first campaign).
func ladderInputs(cfg *config) ([]prepared, error) {
	seeds := newSeedSet()
	var seq *sequence
	switch cfg.workload {
	case "sweep-cold":
		seq = newSequence(cfg.seed, streamOpen, seeds, coldRequest, nil)
	case "fleet-cold":
		fwd, err := fleet.New(fleet.Options{Self: fleetNameA, Peers: []string{fleetNameA, fleetNameB}})
		if err != nil {
			return nil, err
		}
		defer fwd.Close()
		seq = newSequence(cfg.seed, streamOpen, seeds, coldRequest, func(p prepared) bool {
			return fwd.Owner(p.key) == fleetNameB
		})
	case "sweep-warm":
		keys, err := warmKeySet(cfg.seed, seeds, setupReps-1)
		if err != nil {
			return nil, err
		}
		draws := zipfSequence(cfg.seed, streamOpen, keys)
		seen := make(map[uint64]bool)
		seq = &sequence{gen: func() (prepared, error) {
			for i := 0; ; i++ {
				p, err := draws.get(i)
				if err != nil || !seen[p.key] {
					seen[p.key] = true
					return p, err
				}
			}
		}}
	case "campaign-repro":
		spec := campaignSpec(seeds.draw(newRand(cfg.seed, streamCampaign)))
		if err := spec.Normalize(); err != nil {
			return nil, err
		}
		cells, err := spec.Expand()
		if err != nil {
			return nil, err
		}
		var out []prepared
		for _, c := range cells {
			if c.Request.Kind == service.KindReliability {
				out = append(out, prepared{req: c.Request, key: c.Key})
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	out := make([]prepared, ladderRequests)
	for i := range out {
		p, err := seq.get(i)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// rungs accumulates the ladder's per-call samples.
type rungs struct {
	boardMs, sweepMs, sweepAllocs  []float64
	points, sweepS                 float64
	enumUs, flipsUs, faultsPerEnum []float64
	enumAllocs, enums              float64
	fillMs                         []float64
	fillWords, fillS               float64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder replays every input and returns the rung metrics and the
// number of requests replayed.
func runLadder(cfg *config, tr *tracer) (map[string]float64, int, error) {
	inputs, err := ladderInputs(cfg)
	if err != nil {
		return nil, 0, err
	}
	var r rungs
	for i, p := range inputs {
		id := fmt.Sprintf("ladder-%d", i)
		if err := tr.do(0, id, "ladder", func(root int64) error { return replay(p, tr, root, id, &r) }); err != nil {
			return nil, i, fmt.Errorf("ladder request %d: %w", i, err)
		}
	}
	l := map[string]float64{
		"board.new_ms":            median(r.boardMs),
		"core.sweep_ms":           median(r.sweepMs),
		"core.points_per_s":       ratio(r.points, r.sweepS),
		"core.sweep_allocs":       median(r.sweepAllocs),
		"faults.enumerate_us":     median(r.enumUs),
		"faults.enumerate_allocs": ratio(r.enumAllocs, r.enums),
		"faults.faults_per_enum":  mean(r.faultsPerEnum),
		"faults.pattern_flips_us": median(r.flipsUs),
		"axi.fillcheck_ms":        median(r.fillMs),
		"axi.words_per_s":         ratio(r.fillWords, r.fillS),
	}
	return l, len(inputs), nil
}

func replay(p prepared, tr *tracer, root int64, id string, r *rungs) error {
	req := p.req
	if err := tr.do(root, id, "board.new", func(int64) error {
		start := time.Now()
		_, err := board.New(board.Config{Seed: req.Seed, Scale: req.Scale, SparseFaults: !req.Exact})
		r.boardMs = append(r.boardMs, ms(time.Since(start)))
		return err
	}); err != nil {
		return err
	}
	sys, err := hbmvolt.New(hbmvolt.Config{Seed: req.Seed, Scale: req.Scale, SparseFaults: !req.Exact})
	if err != nil {
		return err
	}
	pats := make([]pattern.Pattern, len(req.Patterns))
	for i, name := range req.Patterns {
		if pats[i], err = pattern.ByName(name); err != nil {
			return err
		}
	}
	ports := make([]hbmvolt.PortID, len(req.Ports))
	for i, port := range req.Ports {
		ports[i] = hbmvolt.PortID(port)
	}
	if err := tr.do(root, id, "core.sweep", func(int64) error {
		before := mallocs()
		start := time.Now()
		res, err := sys.RunReliability(hbmvolt.ReliabilityConfig{
			Ports: ports, Patterns: pats, BatchSize: req.Batch, Grid: req.Grid, Workers: 1,
		})
		d := time.Since(start)
		if err != nil {
			return err
		}
		if len(res.Points) != len(req.Grid) {
			return wrong(fmt.Errorf("sweep returned %d points for a %d-point grid", len(res.Points), len(req.Grid)))
		}
		r.sweepMs = append(r.sweepMs, ms(d))
		r.sweepS += d.Seconds()
		r.points += float64(len(req.Grid))
		r.sweepAllocs = append(r.sweepAllocs, float64(mallocs()-before))
		return nil
	}); err != nil {
		return err
	}

	words := sys.Board.Org.WordsPerPC
	tested := 0
	for g := len(req.Grid) - 1; g >= 0 && tested < ladderPoints; g-- {
		if err := sys.SetVoltage(req.Grid[g]); err != nil {
			return err
		}
		if sys.Crashed() {
			if err := sys.PowerCycle(); err != nil {
				return err
			}
			continue
		}
		tested++
		v, err := sys.Voltage()
		if err != nil {
			return err
		}
		var enums []*faults.Enumeration
		if err := tr.do(root, id, "faults.enumerate", func(int64) error {
			before := mallocs()
			for rep := 0; rep < req.Batch; rep++ {
				for _, port := range ports {
					stack, pc := port.StackPC(sys.Board.Org)
					start := time.Now()
					e := sys.Board.Faults.Enumerate(stack, pc, v, uint64(rep), words)
					r.enumUs = append(r.enumUs, float64(time.Since(start))/float64(time.Microsecond))
					r.faultsPerEnum = append(r.faultsPerEnum, float64(e.FaultCount()))
					enums = append(enums, e)
				}
			}
			r.enumAllocs += float64(mallocs() - before)
			r.enums += float64(len(enums))
			return nil
		}); err != nil {
			return err
		}
		if err := tr.do(root, id, "faults.pattern_flips", func(int64) error {
			for _, e := range enums {
				for _, pat := range pats {
					start := time.Now()
					if _, _, ok := e.PatternFlips(pat); !ok {
						return fmt.Errorf("pattern %s has no closed-form ones density", pat.Name())
					}
					r.flipsUs = append(r.flipsUs, float64(time.Since(start))/float64(time.Microsecond))
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := tr.do(root, id, "axi.fillcheck", func(int64) error {
			for _, port := range ports {
				tg := sys.Board.TGs[port]
				for _, pat := range pats {
					if err := tg.Reset(); err != nil {
						return err
					}
					start := time.Now()
					st, err := tg.Run(axi.FillCheckProgram(pat, 0, words))
					d := time.Since(start)
					if err != nil {
						return err
					}
					r.fillMs = append(r.fillMs, ms(d))
					r.fillWords += float64(st.WordsWritten + st.WordsRead)
					r.fillS += d.Seconds()
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
