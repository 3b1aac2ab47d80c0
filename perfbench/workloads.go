package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hbmvolt"
	"hbmvolt/internal/campaign"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// Offered open-loop rates, fixed so that two commits are compared at
// the same load (the capacity phase reports the actual capacity). On a
// 2-CPU host sweep-cold runs at about a quarter of its capacity: at
// half, queueing amplified the host's speed drift into run-to-run
// latency spreads above 0.2. fleet-cold runs at about half; sweep-warm
// at about an eighth, enough samples for a p99 with fifty beyond it.
const (
	coldRate  = 14.0  // requests/s
	warmRate  = 500.0 // requests/s
	fleetRate = 9.0   // requests/s
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// phaseBlocks splits a sweep workload's timed phase into blocks of
	// open loop then closed loop; the end-to-end figures are medians over
	// blocks, so a few seconds of host interference move one block, not
	// the run.
	phaseBlocks = 5
	// warmupRequests are sent, on throwaway seeds, in every set-up, so
	// connections and lazily built process state exist before timing.
	warmupRequests = 4
	// warmKeys is the sweep-warm key set; warmMemoryEntries bounds its
	// in-memory tiers (result LRU and retained job records) to a quarter
	// of it, so the Zipf tail reads from disk.
	warmKeys          = 64
	warmMemoryEntries = 16
	// fleetSampleEvery picks the fleet-cold payloads that are recomputed
	// on a standalone node after the timed phase: keys ≡ 0 modulo it.
	fleetSampleEvery = 8
	// forwardProbes is how many direct ExecuteSweep calls a traced
	// fleet-cold run times.
	forwardProbes = 6
)

// fleet node names are fixed, so key ownership (rendezvous hashing over
// node names) and thus the fleet-cold input stream depend on the seed
// alone; a dialer maps the names onto the loopback listeners.
const (
	fleetNameA = "http://fleet-a.test"
	fleetNameB = "http://fleet-b.test"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	conc     int    // requests and connections in flight: nproc
	workDir  string // scratch space inside the checkout
	// corrupt, when > 0, corrupts that (1-based) result of the timed
	// phase in transfer (campaign-repro: one byte of an artifact), to
	// prove the gate trips.
	corrupt int
}

// outcome is everything one run measured.
type outcome struct {
	setupS []float64
	// open is the open-loop phase; for campaign-repro, the campaigns.
	open   tally
	closed tally
	// p50 and p90 are open-loop latency percentiles (ms) and capacity the
	// closed loop's verified completions per second, each the median
	// over blocks (campaign-repro: over campaigns).
	p50, p90, capacity float64
	// extra counts checks made outside the load phases (fleet-cold's
	// standalone recompute sample); failures there are wrong outputs.
	extra  tally
	layers map[string]float64
	tr     *tracer
}

func (o *outcome) attempted() int { return o.open.sent + o.closed.sent + o.extra.sent }
func (o *outcome) failed() int    { return o.open.failed + o.closed.failed + o.extra.failed }
func (o *outcome) incorrect() int { return o.open.incorrect + o.closed.incorrect + o.extra.incorrect }

func (o *outcome) firstErr() error {
	for _, t := range []tally{o.open, o.closed, o.extra} {
		if t.firstErr != nil {
			return t.firstErr
		}
	}
	return nil
}

var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"sweep-cold":     runSweepCold,
	"sweep-warm":     runSweepWarm,
	"fleet-cold":     runFleetCold,
	"campaign-repro": runCampaignRepro,
}

// payloadSizes collects result sizes across client goroutines.
type payloadSizes struct {
	mu sync.Mutex
	b  []float64
}

func (p *payloadSizes) add(n int) {
	p.mu.Lock()
	p.b = append(p.b, float64(n))
	p.mu.Unlock()
}

// sweeper drives sweep requests through one client.
type sweeper struct {
	c  *service.Client
	tr *tracer
	// sizes, when non-nil, records each verified payload's size.
	sizes *payloadSizes
	check func(prepared, []byte) error
	// keep, when non-nil, receives each payload that passed check.
	keep func(prepared, []byte)
	// resubmits counts requests sent again because the server dropped
	// the job record between submission and result (ErrJobLost or a 404
	// on the result): the client contract's recovery is to resubmit.
	resubmits atomic.Int64
}

// maxAttempts bounds resubmission of one request.
const maxAttempts = 3

// op returns the doFunc that submits request i of seq, follows it to
// completion, fetches the checksum-verified payload and verifies it.
func (s *sweeper) op(seq *sequence, tag string) doFunc {
	return func(ctx context.Context, i int) error {
		p, err := seq.get(i)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("%s-%d", tag, i)
		if s.tr != nil {
			ctx = telemetry.WithTrace(ctx, id)
		}
		return s.tr.do(0, id, "request", func(root int64) error {
			for attempt := 1; ; attempt++ {
				payload, lost, err := s.fetch(ctx, p, root, id)
				if lost && attempt < maxAttempts {
					s.resubmits.Add(1)
					continue
				}
				if err != nil {
					return err
				}
				if s.sizes != nil {
					s.sizes.add(len(payload))
				}
				if err := s.tr.do(root, id, "gate.verify", func(int64) error {
					if err := s.check(p, payload); err != nil {
						return wrong(err)
					}
					return nil
				}); err != nil {
					return err
				}
				if s.keep != nil {
					s.keep(p, payload)
				}
				return nil
			}
		})
	}
}

// fetch makes one submit/wait/result round. lost reports that the
// server no longer knew the job.
func (s *sweeper) fetch(ctx context.Context, p prepared, root int64, id string) (payload []byte, lost bool, err error) {
	var sub service.SubmitResponse
	if err := s.tr.do(root, id, "service.submit", func(int64) (err error) {
		sub, err = s.c.Submit(ctx, p.req)
		return err
	}); err != nil {
		return nil, false, err
	}
	var st service.JobState
	if err := s.tr.do(root, id, "service.wait", func(int64) (err error) {
		st, err = s.c.Wait(ctx, sub.ID)
		return err
	}); err != nil {
		return nil, errors.Is(err, service.ErrJobLost), err
	}
	if st != service.StateDone {
		return nil, false, fmt.Errorf("job %s ended %s", sub.ID, st)
	}
	err = s.tr.do(root, id, "service.result", func(int64) (err error) {
		payload, err = s.c.Result(ctx, sub.ID)
		return err
	})
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
		return nil, true, err
	}
	if err != nil {
		// The job is done, so the bytes exist: a result that does not
		// arrive intact is a wrong output, not a refusal.
		return nil, false, wrong(err)
	}
	return payload, false, nil
}

// newSequence returns the lazily generated stream of draw's requests.
func newSequence(seed, stream uint64, seeds *seedSet, draw func(*rand.Rand, uint64) service.SweepRequest, keep func(prepared) bool) *sequence {
	r := newRand(seed, stream)
	return &sequence{gen: func() (prepared, error) {
		for {
			p, err := prepare(draw(r, seeds.draw(r)))
			if err != nil || keep == nil || keep(p) {
				return p, err
			}
		}
	}}
}

// setupStream is the throwaway-seed stream of set-up repetition rep.
func setupStream(rep int) uint64 { return streamSetup<<8 | uint64(rep) }

// warmup sends warmupRequests verified requests of seq, one at a time.
func warmup(ctx context.Context, do doFunc) error {
	for i := 0; i < warmupRequests; i++ {
		if err := do(ctx, i); err != nil {
			return fmt.Errorf("set-up warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// timedPhase runs the timed phase shared by the sweep workloads
// against the node at url: phaseBlocks blocks, each half open loop at
// rate and half closed loop. Open- and closed-loop requests come from
// separate sequences, so request i of either is the same input however
// fast the closed loop runs. A traced run also derives the service and
// enumeration layers. It returns the node's /metrics before and after.
func timedPhase(ctx context.Context, cfg *config, o *outcome, url string, rate float64, sw *sweeper, open, closed doFunc) (before, after scrape, err error) {
	if before, err = scrapeMetrics(ctx, url); err != nil {
		return nil, nil, err
	}
	enumBefore := faults.EnumStoreStats()
	half := time.Duration(cfg.seconds / phaseBlocks / 2 * float64(time.Second))
	var p50, p90, capacity []float64
	oi, ci := 0, 0
	for b := 0; b < phaseBlocks && ctx.Err() == nil; b++ {
		var op, cl tally
		op, oi = openLoop(ctx, oi, rate, half, cfg.conc, open)
		cl, ci = closedLoop(ctx, ci, half, cfg.conc, closed)
		p50 = append(p50, median(op.latMs))
		p90 = append(p90, quantile(op.latMs, 0.9))
		capacity = append(capacity, ratio(float64(cl.ok), cl.wall.Seconds()))
		o.open.add(op)
		o.closed.add(cl)
	}
	o.p50, o.p90, o.capacity = median(p50), median(p90), median(capacity)
	if after, err = scrapeMetrics(ctx, url); err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		serviceLayers(o.layers, sw, before, after)
		enumLayers(o.layers, enumBefore, faults.EnumStoreStats())
	}
	return before, after, nil
}

// serviceLayers derives the service layer's per-layer metrics from the
// timed phase's client spans and /metrics deltas.
func serviceLayers(l map[string]float64, sw *sweeper, before, after scrape) {
	tr, sizes := sw.tr, sw.sizes
	l["loadgen.resubmits"] = float64(sw.resubmits.Load())
	l["service.submit_ms"] = median(tr.durationsMs("service.submit"))
	l["service.result_ms"] = median(tr.durationsMs("service.result"))
	l["service.wait_ms"] = median(tr.durationsMs("service.wait"))
	sizes.mu.Lock()
	l["service.payload_bytes"] = median(sizes.b)
	sizes.mu.Unlock()
	runs := delta(before, after, "hbmvolt_job_duration_seconds_count")
	runMs := 1000 * ratio(delta(before, after, "hbmvolt_job_duration_seconds_sum"), runs)
	l["service.job_run_ms"] = runMs
	// Queue wait: from sending the submission to seeing the job done,
	// less the job's own run time.
	l["service.queue_wait_ms"] = mean(tr.durationsMs("service.submit")) + mean(tr.durationsMs("service.wait")) - runMs
	l["gate.verify_ms"] = median(tr.durationsMs("gate.verify"))
	memHits := delta(before, after, "hbmvolt_cache_requests_total", `tier="memory"`, `outcome="hit"`)
	diskHits := delta(before, after, "hbmvolt_cache_requests_total", `tier="disk"`, `outcome="hit"`)
	// A miss is a lookup that fell through the last tier to compute.
	misses := delta(before, after, "hbmvolt_jobs_submitted_total", `outcome="accepted"`)
	l["service.cache_hits_memory"] = memHits
	l["service.cache_hits_disk"] = diskHits
	l["service.cache_misses"] = misses
	l["service.cache_hit_ratio"] = ratio(memHits+diskHits, memHits+diskHits+misses)
	l["service.cache_evictions"] = delta(before, after, "hbmvolt_cache_evictions_total")
	l["service.sweep_runs"] = delta(before, after, "hbmvolt_sweep_runs_total")
	l["service.admission_rejected"] = delta(before, after, "hbmvolt_admission_rejected_total")
}

// enumLayers reports the process-wide enumeration store's activity
// between two snapshots.
func enumLayers(l map[string]float64, before, after faults.EnumStats) {
	hits := float64(after.Hits - before.Hits)
	computes := float64(after.Computes - before.Computes)
	l["faults.enum_hits"] = hits
	l["faults.enum_computes"] = computes
	l["faults.enum_hit_ratio"] = ratio(hits, hits+computes)
}

func newTracer(cfg *config) *tracer {
	if cfg.trace {
		return &tracer{}
	}
	return nil
}

// runSweepCold: one node with hbmvoltd's defaults; every request a
// reliability sweep on a fresh device, so every request pays for its
// physics and the result cache is only written.
func runSweepCold(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, tr: newTracer(cfg)}
	seeds := newSeedSet()
	var n *node
	var c *service.Client
	for rep := 0; rep < setupReps; rep++ {
		if n != nil {
			n.close()
		}
		start := time.Now()
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		if n, err = startNode(ln, daemonConfig(), nil); err != nil {
			return nil, err
		}
		c = newClient(n.url, cfg.conc)
		if err := waitHealthy(ctx, c); err != nil {
			return nil, err
		}
		seq := newSequence(cfg.seed, setupStream(rep), seeds, setupRequest, nil)
		if err := warmup(ctx, (&sweeper{c: c, check: checkSweep}).op(seq, "setup")); err != nil {
			n.close()
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	defer n.close()
	n.corruptResult.Store(int64(cfg.corrupt))
	n.results.Store(0)

	sw := &sweeper{c: c, tr: o.tr, sizes: &payloadSizes{}, check: checkSweep}
	open := sw.op(newSequence(cfg.seed, streamOpen, seeds, coldRequest, nil), "cold-open")
	closed := sw.op(newSequence(cfg.seed, streamClosed, seeds, coldRequest, nil), "cold-closed")
	if _, _, err := timedPhase(ctx, cfg, o, n.url, coldRate, sw, open, closed); err != nil {
		return nil, err
	}
	return o, nil
}

// warmKeySet draws set-up repetition rep's key set.
func warmKeySet(seed uint64, seeds *seedSet, rep int) ([]prepared, error) {
	r := newRand(seed, streamWarmKeys<<8|uint64(rep))
	keys := make([]prepared, warmKeys)
	for i := range keys {
		p, err := prepare(warmRequest(r, seeds.draw(r), i))
		if err != nil {
			return nil, err
		}
		keys[i] = p
	}
	return keys, nil
}

// runSweepWarm: one node with a disk tier and a memory tier a quarter
// the size of the key set; set-up computes every key once, and the
// timed phase draws keys with Zipf reuse, so hot keys hit memory and
// the tail reads from disk. No physics runs while timed.
func runSweepWarm(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, tr: newTracer(cfg)}
	seeds := newSeedSet()
	var n *node
	var c *service.Client
	// keys is the set-up's key set and ref each key's payload as first
	// computed (the reference every timed hit must equal).
	var keys []prepared
	var ref map[uint64][]byte
	for rep := 0; rep < setupReps; rep++ {
		if n != nil {
			n.close()
		}
		start := time.Now()
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("warm-%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		scfg := daemonConfig()
		scfg.CacheDir = dir
		scfg.CacheEntries = warmMemoryEntries
		scfg.MaxJobs = warmMemoryEntries
		if n, err = startNode(ln, scfg, nil); err != nil {
			return nil, err
		}
		c = newClient(n.url, cfg.conc)
		if err := waitHealthy(ctx, c); err != nil {
			return nil, err
		}
		if keys, err = warmKeySet(cfg.seed, seeds, rep); err != nil {
			return nil, err
		}
		ref = make(map[uint64][]byte, len(keys))
		var mu sync.Mutex
		pre := closedLoopN(ctx, len(keys), cfg.conc, (&sweeper{c: c, check: checkSweep,
			keep: func(p prepared, payload []byte) {
				mu.Lock()
				ref[p.key] = payload
				mu.Unlock()
			}}).op(&sequence{items: keys}, "setup"))
		if pre.failed > 0 {
			n.close()
			return nil, fmt.Errorf("pre-computing warm keys: %w", pre.firstErr)
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	defer n.close()
	n.corruptResult.Store(int64(cfg.corrupt))
	n.results.Store(0)

	sw := &sweeper{c: c, tr: o.tr, sizes: &payloadSizes{},
		check: func(p prepared, payload []byte) error { return checkSame(p, payload, ref[p.key]) }}
	open := sw.op(zipfSequence(cfg.seed, streamOpen, keys), "warm-open")
	closed := sw.op(zipfSequence(cfg.seed, streamClosed, keys), "warm-closed")
	if _, _, err := timedPhase(ctx, cfg, o, n.url, warmRate, sw, open, closed); err != nil {
		return nil, err
	}
	return o, nil
}

// fleetDialer routes the fixed fleet node names to their listeners.
func fleetDialer(addrs map[string]string) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("fleet dialer: unknown node %s", addr)
			}
			return d.DialContext(ctx, network, real)
		},
	}}
}

// fleetPair is a two-node fleet: A, which the load generator talks
// to, and B, which owns the keys it sends.
type fleetPair struct{ a, b *node }

func (f *fleetPair) close() {
	f.a.close()
	f.b.close()
}

// startFleet boots A (with a disk tier at dir, the replication target)
// and B, both with hbmvoltd's service defaults and the fleet package's
// default options.
func startFleet(dir string) (*fleetPair, error) {
	lnA, err := listen()
	if err != nil {
		return nil, err
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return nil, err
	}
	hc := fleetDialer(map[string]string{
		"fleet-a.test:80": lnA.Addr().String(),
		"fleet-b.test:80": lnB.Addr().String(),
	})
	opts := func(self string) *fleet.Options {
		return &fleet.Options{Self: self, Peers: []string{fleetNameA, fleetNameB}, HTTPClient: hc}
	}
	b, err := startNode(lnB, daemonConfig(), opts(fleetNameB))
	if err != nil {
		lnA.Close()
		lnB.Close()
		return nil, err
	}
	acfg := daemonConfig()
	acfg.CacheDir = dir
	a, err := startNode(lnA, acfg, opts(fleetNameA))
	if err != nil {
		lnA.Close()
		b.close()
		return nil, err
	}
	return &fleetPair{a: a, b: b}, nil
}

// ownedByB keeps the requests whose key the fleet routes to B.
func ownedByB(fp *fleetPair) func(prepared) bool {
	return func(p prepared) bool { return fp.a.fwd.Owner(p.key) == fleetNameB }
}

// runFleetCold: two in-process nodes; the request mix of sweep-cold,
// kept to the keys B owns, all sent to A, so every request is a cold
// forward A→B plus replication into A's disk tier.
func runFleetCold(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, tr: newTracer(cfg)}
	seeds := newSeedSet()
	var fp *fleetPair
	var c *service.Client
	for rep := 0; rep < setupReps; rep++ {
		if fp != nil {
			fp.close()
		}
		start := time.Now()
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("fleet-a-%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if fp, err = startFleet(dir); err != nil {
			return nil, err
		}
		c = newClient(fp.a.url, cfg.conc)
		if err := waitHealthy(ctx, c); err != nil {
			fp.close()
			return nil, err
		}
		seq := newSequence(cfg.seed, setupStream(rep), seeds, setupRequest, ownedByB(fp))
		if err := warmup(ctx, (&sweeper{c: c, check: checkSweep}).op(seq, "setup")); err != nil {
			fp.close()
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	defer fp.close()
	fp.a.corruptResult.Store(int64(cfg.corrupt))
	fp.a.results.Store(0)

	var mu sync.Mutex
	var sample []prepared
	served := make(map[uint64][]byte)
	keep := func(p prepared, payload []byte) {
		if p.key%fleetSampleEvery == 0 {
			mu.Lock()
			sample = append(sample, p)
			served[p.key] = payload
			mu.Unlock()
		}
	}
	sw := &sweeper{c: c, tr: o.tr, sizes: &payloadSizes{}, check: checkSweep, keep: keep}
	open := sw.op(newSequence(cfg.seed, streamOpen, seeds, coldRequest, ownedByB(fp)), "fleet-open")
	closed := sw.op(newSequence(cfg.seed, streamClosed, seeds, coldRequest, ownedByB(fp)), "fleet-closed")
	bReqs := fp.b.requests.Load()
	before, after, err := timedPhase(ctx, cfg, o, fp.a.url, fleetRate, sw, open, closed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		forwards := delta(before, after, "hbmvolt_fleet_serves_total", `mode="forwarded"`)
		o.layers["fleet.forwards"] = forwards
		o.layers["fleet.forward_failures"] = delta(before, after, "hbmvolt_fleet_peer_forward_failures_total")
		o.layers["fleet.degraded"] = delta(before, after, "hbmvolt_fleet_serves_total", `mode="degraded"`)
		o.layers["fleet.hedges"] = delta(before, after, "hbmvolt_fleet_hedges_total")
		o.layers["fleet.replicated_bytes"] = delta(before, after, "hbmvolt_fleet_replicated_bytes_total")
		o.layers["fleet.owner_requests_per_forward"] = ratio(float64(fp.b.requests.Load()-bReqs), forwards)
		if err := forwardProbe(ctx, cfg, o, fp, seeds); err != nil {
			return nil, err
		}
	}

	// Outside the timed phase: recompute the sampled payloads on a
	// standalone node; each must be byte-equal to what the fleet served.
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	solo, err := startNode(ln, daemonConfig(), nil)
	if err != nil {
		return nil, err
	}
	defer solo.close()
	sc := newClient(solo.url, cfg.conc)
	recompute := (&sweeper{c: sc, check: func(p prepared, payload []byte) error {
		return checkSame(p, payload, served[p.key])
	}}).op(&sequence{items: sample}, "recompute")
	for i := range sample {
		start := time.Now()
		o.extra.record(recompute(ctx, i), time.Since(start), 0)
	}
	return o, nil
}

// forwardProbe times ExecuteSweep on A directly for fresh B-owned keys
// (span fleet.forward) and counts the requests B receives per forward.
func forwardProbe(ctx context.Context, cfg *config, o *outcome, fp *fleetPair, seeds *seedSet) error {
	seq := newSequence(cfg.seed, streamSetup<<8|0xff, seeds, coldRequest, ownedByB(fp))
	for i := 0; i < forwardProbes; i++ {
		p, err := seq.get(i)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("forward-%d", i)
		err = o.tr.do(0, id, "fleet.forward", func(int64) error {
			payload, info, err := fp.a.fwd.ExecuteSweep(ctx, p.key, p.req, func(context.Context) ([]byte, error) {
				return nil, fmt.Errorf("owner B unreachable: forward degraded to local compute")
			})
			if err != nil {
				return err
			}
			if info.ServedBy != fleetNameB {
				return fmt.Errorf("forward served by %q, want %q", info.ServedBy, fleetNameB)
			}
			if err := checkSweep(p, payload); err != nil {
				return wrong(err)
			}
			return nil
		})
		o.extra.record(err, 0, 0)
	}
	o.layers["fleet.forward_ms"] = median(o.tr.durationsMs("fleet.forward"))
	return nil
}

// campaignSpec is the built-in paper-repro smoke campaign with every
// scenario moved onto device seed s.
func campaignSpec(s uint64) campaign.Spec {
	spec := hbmvolt.PaperReproCampaign(true)
	for i := range spec.Scenarios {
		spec.Scenarios[i].Seeds = []uint64{s}
	}
	return spec
}

// campaignOptions are the CLI's defaults on an nproc host.
func campaignOptions(cfg *config) campaign.Options {
	return campaign.Options{Jobs: cfg.conc, Fleet: cfg.conc}
}

// runCampaignRepro: campaigns back to back, each shaped like the
// built-in paper-repro smoke spec on its own device seed.
func runCampaignRepro(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, tr: newTracer(cfg)}
	seeds := newSeedSet()
	for rep := 0; rep < setupReps; rep++ {
		// Set-up is one small campaign on throwaway devices, so the
		// engine's code paths and the Go runtime are warm when timing
		// starts.
		start := time.Now()
		r := newRand(cfg.seed, setupStream(rep))
		var devs []uint64
		for len(devs) < warmupRequests {
			devs = append(devs, seeds.draw(r))
		}
		shape := setupRequest(nil, 0)
		spec := campaign.Spec{Name: "setup", Scenarios: []campaign.Scenario{{
			Name: "rel", Kind: shape.Kind, Seeds: devs, Scales: []uint64{shape.Scale},
			Grid: shape.Grid, Ports: shape.Ports, PatternSets: [][]string{shape.Patterns}, Batch: shape.Batch,
		}}}
		if _, err := hbmvolt.RunCampaign(ctx, spec, campaignOptions(cfg)); err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}

	r := newRand(cfg.seed, streamCampaign)
	enumBefore := faults.EnumStoreStats()
	var cells, unique, longest []float64
	stop := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	for i := 0; i == 0 || time.Now().Before(stop); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		spec := campaignSpec(seeds.draw(r))
		id := fmt.Sprintf("campaign-%d", i)
		dir := filepath.Join(cfg.workDir, id)
		began := time.Now()
		var res *campaign.Result
		var expanded []campaign.Cell
		err := o.tr.do(0, id, "campaign", func(root int64) error {
			if err := o.tr.do(root, id, "campaign.expand", func(int64) (err error) {
				norm := campaignSpec(spec.Scenarios[0].Seeds[0])
				if err := norm.Normalize(); err != nil {
					return err
				}
				expanded, err = norm.Expand()
				return err
			}); err != nil {
				return err
			}
			if err := o.tr.do(root, id, "campaign.run", func(int64) (err error) {
				var cell float64
				res, cell, err = runCampaign(ctx, cfg, spec, id)
				if cfg.trace {
					longest = append(longest, cell)
				}
				return err
			}); err != nil {
				return err
			}
			if err := o.tr.do(root, id, "campaign.emit", func(int64) error {
				if _, err := res.ManifestJSON(); err != nil {
					return err
				}
				return res.WriteArtifacts(dir)
			}); err != nil {
				return err
			}
			if i+1 == cfg.corrupt {
				if err := corruptArtifact(dir, res); err != nil {
					return err
				}
			}
			return o.tr.do(root, id, "gate.verify", func(int64) error {
				if err := checkCampaign(expanded, res, dir); err != nil {
					return wrong(err)
				}
				return nil
			})
		})
		o.open.record(err, time.Since(began), 0)
		if err == nil {
			cells = append(cells, float64(res.Manifest.Cells))
			unique = append(unique, float64(res.Manifest.UniqueSweeps))
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	o.open.wall = time.Since(start)
	sum := 0.0
	for _, c := range cells {
		sum += c
	}
	o.p50, o.p90 = median(o.open.latMs), quantile(o.open.latMs, 0.9)
	o.capacity = ratio(sum, o.open.wall.Seconds())
	if cfg.trace {
		l := o.layers
		l["campaign.expand_ms"] = median(o.tr.durationsMs("campaign.expand"))
		l["campaign.run_s"] = median(o.tr.durationsMs("campaign.run")) / 1000
		l["campaign.emit_ms"] = median(o.tr.durationsMs("campaign.emit"))
		l["campaign.longest_cell_s"] = median(longest)
		l["campaign.cells"] = median(cells)
		l["campaign.unique_sweeps"] = median(unique)
		enumLayers(l, enumBefore, faults.EnumStoreStats())
	}
	return o, nil
}

// corruptArtifact flips one byte of the campaign's last artifact.
func corruptArtifact(dir string, res *campaign.Result) error {
	sc := res.Manifest.Scenarios
	path := filepath.Join(dir, sc[len(sc)-1].Artifact)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}

// runCampaign executes one campaign with the CLI's default options.
// Untraced, that is hbmvolt.RunCampaign. Traced, the same execution
// runs on a manager the benchmark opens with RunCampaign's settings,
// so the cells' job.run spans (trace id) give the longest cell.
func runCampaign(ctx context.Context, cfg *config, spec campaign.Spec, id string) (*campaign.Result, float64, error) {
	opts := campaignOptions(cfg)
	if !cfg.trace {
		res, err := hbmvolt.RunCampaign(ctx, spec, opts)
		return res, 0, err
	}
	if err := spec.Normalize(); err != nil {
		return nil, 0, err
	}
	mgr, err := service.OpenManager(service.Config{
		Workers:    opts.Jobs,
		QueueDepth: max(16, spec.CellTotal()+opts.Jobs),
		FleetSize:  1,
	})
	if err != nil {
		return nil, 0, err
	}
	defer mgr.Close()
	opts.TraceID = id
	res, err := campaign.Execute(ctx, mgr, spec, opts)
	longest := 0.0
	for _, s := range mgr.Recorder().ForTrace(id) {
		if s.Name == "job.run" && s.Duration.Seconds() > longest {
			longest = s.Duration.Seconds()
		}
	}
	return res, longest, err
}
