// Package faults models reduced-voltage-induced bit faults in HBM DRAM.
//
// It is the empirical core of the reproduction: a stochastic cell model
// calibrated against every quantitative observation in Nabavi Larimi et
// al. (DATE 2021). Each bit cell has a critical voltage V_c drawn from a
// mixture of a clustered "weak" population (governing the exponential
// fault growth between 0.97 V and 0.86 V, with strong per-PC process
// variation) and a shared Gaussian "bulk" population (governing the
// collapse at 0.85-0.84 V). A cell whose supply drops below its V_c is
// stuck at 0 or stuck at 1; monotonicity in voltage is guaranteed by
// construction.
//
// The same survival functions feed two evaluation paths:
//
//   - the analytic path (analytic.go) computes exact expectations for
//     full-size memories, used to regenerate the paper's figures;
//   - the sampling path (Sampler) draws per-bit faults deterministically
//     from a seed, used by the simulated device under Algorithm 1.
//
// Tests assert that the two paths agree within Poisson confidence bounds.
package faults

import (
	"fmt"
	"math"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// Geometry describes the address layout of one pseudo channel as the
// fault model needs it. It mirrors internal/hbm's organization but is
// passed explicitly so the two packages stay decoupled.
type Geometry struct {
	// WordsPerPC is the number of 256-bit words per pseudo channel
	// (8M for the paper's 256 MB PCs).
	WordsPerPC uint64
	// WordsPerRow is the number of 256-bit words per DRAM row (32 for a
	// 1 KB row).
	WordsPerRow uint64
}

// DefaultGeometry matches the paper's platform: 256 MB pseudo channels
// with 1 KB rows.
var DefaultGeometry = Geometry{WordsPerPC: 8 << 20, WordsPerRow: 32}

// RowsPerPC returns the number of rows in one pseudo channel.
func (g Geometry) RowsPerPC() uint64 {
	if g.WordsPerRow == 0 {
		return 0
	}
	return g.WordsPerPC / g.WordsPerRow
}

// BitsPerPC returns the number of bit cells in one pseudo channel.
func (g Geometry) BitsPerPC() float64 {
	return float64(g.WordsPerPC) * 256
}

// PCProfile captures the process-variation parameters of one pseudo
// channel.
type PCProfile struct {
	// WeakMult scales the weak-population survival function; >1 is more
	// fault-prone than the calibration median, <1 less.
	WeakMult float64
	// ClusterFraction is the fraction of the PC's rows covered by weak
	// clusters.
	ClusterFraction float64
	// ClusterCount is the number of cluster regions placed.
	ClusterCount int
}

// Config assembles a fault model.
type Config struct {
	// Seed determines every random aspect of the device (cluster
	// placement, per-cell critical voltages, polarities).
	Seed uint64
	// Temperature in °C; the paper characterizes at 35 °C.
	Temperature float64
	// Geometry of each pseudo channel.
	Geometry Geometry
	// Profiles holds per-PC variation (index = stack*16 + pc). Zero-value
	// entries are replaced by the calibrated defaults.
	Profiles [NumPCs]PCProfile
	// SparseEnumeration switches samplers from the bit-exact per-cell
	// draw to the sparse O(#faults) enumeration: per-row fault counts and
	// positions are drawn directly (keyed on seed, PC, row, batch rep and
	// voltage), so range scans cost proportional to the faults they
	// contain instead of the bits they cover. The two modes realize different (but statistically
	// identical) devices; sampling tests assert both agree with the
	// analytic expectations within Poisson bounds. Leave false for
	// bit-reproducible per-cell fault maps.
	SparseEnumeration bool
}

// DefaultConfig returns the calibrated configuration reproducing the
// paper's device.
func DefaultConfig() Config {
	cfg := Config{
		Seed:        1,
		Temperature: TempRef,
		Geometry:    DefaultGeometry,
	}
	for i := range cfg.Profiles {
		cfg.Profiles[i] = PCProfile{
			WeakMult:        defaultWeakMult[i],
			ClusterFraction: defaultClusterFraction,
			ClusterCount:    defaultClusterCount,
		}
	}
	return cfg
}

// Model is an immutable, deterministic fault model for the two-stack HBM
// device. It is safe for concurrent use.
type Model struct {
	cfg        Config
	clusters   [NumPCs]clusterSet
	coverage   [NumPCs]float64
	tempWeak   float64 // multiplicative temperature factor on weak survival
	bulkMuT    float64 // temperature-adjusted bulk knee
	weakVcMaxT float64 // temperature-adjusted weak truncation point
	// atlas memoizes the analytic rates, shared process-wide among models
	// with the same config fingerprint (see atlas.go).
	atlas *rateAtlas
}

// New builds a Model from cfg, filling zero-valued profile fields with
// the calibrated defaults.
func New(cfg Config) (*Model, error) {
	if cfg.Temperature == 0 {
		cfg.Temperature = TempRef
	}
	if cfg.Geometry.WordsPerPC == 0 {
		cfg.Geometry = DefaultGeometry
	}
	if cfg.Geometry.WordsPerRow == 0 {
		return nil, fmt.Errorf("faults: WordsPerRow must be positive")
	}
	if cfg.Geometry.WordsPerPC%cfg.Geometry.WordsPerRow != 0 {
		return nil, fmt.Errorf("faults: WordsPerPC (%d) not a multiple of WordsPerRow (%d)",
			cfg.Geometry.WordsPerPC, cfg.Geometry.WordsPerRow)
	}
	for i := range cfg.Profiles {
		p := &cfg.Profiles[i]
		if p.WeakMult == 0 {
			p.WeakMult = defaultWeakMult[i]
		}
		if p.WeakMult < 0 {
			return nil, fmt.Errorf("faults: PC%d WeakMult negative", i)
		}
		if p.ClusterFraction == 0 {
			p.ClusterFraction = defaultClusterFraction
		}
		if p.ClusterFraction < 0 || p.ClusterFraction > 1 {
			return nil, fmt.Errorf("faults: PC%d ClusterFraction %v out of [0,1]", i, p.ClusterFraction)
		}
		if p.ClusterCount == 0 {
			p.ClusterCount = defaultClusterCount
		}
	}
	m := &Model{
		cfg:        cfg,
		tempWeak:   math.Exp(tempWeakLnCoeff * (cfg.Temperature - TempRef)),
		bulkMuT:    bulkMu + tempBulkShiftPerC*(cfg.Temperature-TempRef),
		weakVcMaxT: weakVcMax + tempTailShiftPerC*(cfg.Temperature-TempRef),
	}
	rows := cfg.Geometry.RowsPerPC()
	for i := range m.clusters {
		p := cfg.Profiles[i]
		m.clusters[i] = buildClusters(cfg.Seed, i/PCsPerStack, i%PCsPerStack, rows, p.ClusterFraction, p.ClusterCount)
		m.coverage[i] = m.clusters[i].coverage(rows)
	}
	m.atlas = atlasFor(m.cfg.Fingerprint())
	return m, nil
}

// MustNew is New but panics on error; for use with known-good configs in
// examples and benchmarks.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the (default-filled) configuration the model was built
// from.
func (m *Model) Config() Config { return m.cfg }

// Fingerprint returns the analytic-rate cache key of this model's
// configuration (see Config.Fingerprint). Two models with equal
// fingerprints realize identical expected rates at every voltage, which
// is what makes the fingerprint usable as a result-cache key for sweep
// services: equal fingerprints plus equal sweep parameters imply
// bit-identical sweep outcomes.
func (m *Model) Fingerprint() uint64 { return m.cfg.Fingerprint() }

// Geometry returns the per-PC geometry.
func (m *Model) Geometry() Geometry { return m.cfg.Geometry }

// pcIndex folds (stack, pc) into the global profile index.
func pcIndex(stack, pc int) int { return stack*PCsPerStack + pc }

// weakSurvival is the base (multiplier-1, 35 °C) weak-population survival
// P(V_c > v), log-linear below the anchor and truncated above weakVcMax.
func weakSurvival(v float64) float64 {
	if v >= weakVcMax {
		return 0
	}
	s := weakAnchorRate * math.Pow(10, weakSlopeDecades*(weakAnchorV-v)/VStep)
	if s > 1 {
		return 1
	}
	return s
}

// weakSurvivalT is the model's weak survival with its temperature-
// shifted truncation point: hotter parts have weak cells with higher
// critical voltages, eroding the guardband.
func (m *Model) weakSurvivalT(v float64) float64 {
	if v >= m.weakVcMaxT {
		return 0
	}
	s := weakAnchorRate * math.Pow(10, weakSlopeDecades*(weakAnchorV-v)/VStep)
	if s > 1 {
		return 1
	}
	return s
}

// bulkSurvival is the shared Gaussian bulk survival at the model's
// temperature.
func (m *Model) bulkSurvival(v float64) float64 {
	if v >= bulkCutoff {
		return 0
	}
	return 0.5 * math.Erfc((v-m.bulkMuT)/(bulkSigma*math.Sqrt2))
}

// weakLocal is the in-cluster weak survival of one PC: the PC-averaged
// weak rate concentrated into the covered fraction of its rows.
func (m *Model) weakLocal(idx int, v float64) float64 {
	cov := m.coverage[idx]
	if cov == 0 {
		return 0
	}
	s := m.cfg.Profiles[idx].WeakMult * m.tempWeak * m.weakSurvivalT(v) / cov
	if s > 1 {
		return 1
	}
	return s
}

// cellSurvival returns the stuck probability of a cell at voltage v, for
// cells inside and outside clusters of PC idx.
func (m *Model) cellSurvival(idx int, v float64, inCluster bool) float64 {
	s := m.bulkSurvival(v)
	if inCluster {
		s += m.weakLocal(idx, v)
		if s > 1 {
			s = 1
		}
	}
	return s
}

// Polarity of a stuck cell.
type Polarity uint8

const (
	// StuckAt0 cells read 0 regardless of the written value (1→0 flips).
	StuckAt0 Polarity = iota
	// StuckAt1 cells read 1 regardless of the written value (0→1 flips).
	StuckAt1
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == StuckAt0 {
		return "stuck-at-0"
	}
	return "stuck-at-1"
}

// CellFault describes one stuck bit within a 256-bit word.
type CellFault struct {
	Bit      int
	Polarity Polarity
}

// JitterMV is the metastability band of marginal cells: across repeated
// test runs, a cell whose critical voltage sits within ~±0.5 mV of the
// supply may or may not misbehave. This is what makes the paper's
// repeated batches (and its error/confidence methodology) meaningful;
// batch repetitions with different rep values observe slightly different
// fault sets.
const JitterMV = 0.5

// Sampler draws the stuck cells of one pseudo channel at one fixed
// voltage. Thresholds are precomputed so the per-bit test is a hash plus
// an integer compare. A Sampler is immutable and safe for concurrent use.
type Sampler struct {
	m           *Model
	idx         int
	seed        uint64
	wordsPerRow uint64
	v           float64
	// vbits keys the sparse-mode draws on the sampled voltage (exact bit
	// pattern; grid builders produce identical float64s for equal grid
	// points), so every draw site is a pure function of
	// (seed, PC, row/segment, rep, voltage) and evaluation order — in
	// particular the order a sharded sweep visits voltage points — can
	// never change a realization.
	vbits uint64
	// thresholds (scaled to uint64) for cells outside / inside clusters
	outStuck, outTail uint64
	inStuck, inTail   uint64
	anyFaults         bool
	clusterOnly       bool
	// sparse selects the O(#faults) enumeration mode (Config.SparseEnumeration).
	sparse bool
	// batch jitter: per-cell choice among {lo, mid, hi} thresholds
	jitter       bool
	rep          uint64
	outLo, outHi uint64
	inLo, inHi   uint64
}

// scale64 converts a probability to a uint64 threshold.
func scale64(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(1<<63) * 2)
}

// NewSampler prepares a per-bit fault sampler for (stack, pc) at supply
// voltage v, without batch jitter (the time-averaged fault set).
func (m *Model) NewSampler(stack, pc int, v float64) *Sampler {
	return m.newSampler(stack, pc, v, false, 0)
}

// NewBatchSampler prepares a sampler for one batch repetition: marginal
// cells within ±JitterMV of their critical voltage resolve differently
// per rep, modelling run-to-run metastability.
func (m *Model) NewBatchSampler(stack, pc int, v float64, rep uint64) *Sampler {
	return m.newSampler(stack, pc, v, true, rep)
}

func (m *Model) newSampler(stack, pc int, v float64, jitter bool, rep uint64) *Sampler {
	idx := pcIndex(stack, pc)
	sOut := m.cellSurvival(idx, v, false)
	sIn := m.cellSurvival(idx, v, true)
	// Tail thresholds select the always-stuck-at-0 cells (V_c above
	// polarityTailV). Clamped to the stuck threshold for v > tail.
	tOut := math.Min(sOut, m.cellSurvival(idx, polarityTailV, false))
	tIn := math.Min(sIn, m.cellSurvival(idx, polarityTailV, true))
	s := &Sampler{
		m:           m,
		idx:         idx,
		seed:        m.cfg.Seed,
		wordsPerRow: m.cfg.Geometry.WordsPerRow,
		v:           v,
		vbits:       math.Float64bits(v),
		outStuck:    scale64(sOut),
		outTail:     scale64(tOut),
		inStuck:     scale64(sIn),
		inTail:      scale64(tIn),
		anyFaults:   sOut > 0 || sIn > 0,
		sparse:      m.cfg.SparseEnumeration,
		jitter:      jitter,
		rep:         rep,
	}
	if jitter {
		d := JitterMV / 1000
		s.outLo = scale64(m.cellSurvival(idx, v+d, false))
		s.outHi = scale64(m.cellSurvival(idx, v-d, false))
		s.inLo = scale64(m.cellSurvival(idx, v+d, true))
		s.inHi = scale64(m.cellSurvival(idx, v-d, true))
		s.anyFaults = s.anyFaults || s.outHi > 0 || s.inHi > 0
	}
	// A region whose scaled thresholds are all zero can never win a
	// draw, so out-of-cluster words are provably clean exactly when both
	// out thresholds are zero — a sharper (but draw-identical) test than
	// comparing float survivals, and the property that lets range scans
	// skip every row outside the weak clusters.
	outDead := s.outStuck == 0 && (!jitter || s.outHi == 0)
	inLive := s.inStuck > 0 || (jitter && s.inHi > 0)
	s.clusterOnly = outDead && inLive
	return s
}

// WordFaults appends the stuck cells of word addr (a word index within
// the pseudo channel) to dst and returns it. On the bit-exact path the
// result is deterministic and monotone in voltage: every fault present
// at voltage v is present at every voltage below v. In sparse mode the
// word's faults come from the same per-row draws RangeFaults uses, so
// single-word reads and bulk range checks observe one consistent device.
func (s *Sampler) WordFaults(addr uint64, dst []CellFault) []CellFault {
	if !s.anyFaults {
		return dst
	}
	if s.sparse {
		s.sparseRange(addr, 1, func(_ uint64, f CellFault) {
			dst = append(dst, f)
		})
		return dst
	}
	s.wordFaults(addr, func(_ uint64, f CellFault) {
		dst = append(dst, f)
	})
	return dst
}

// wordFaults runs the bit-exact per-cell draw for one word, yielding
// each stuck cell in bit order.
func (s *Sampler) wordFaults(addr uint64, visit func(addr uint64, f CellFault)) {
	inCluster := s.m.clusters[s.idx].contains(addr / s.wordsPerRow)
	if s.clusterOnly && !inCluster {
		return
	}
	stuck, tail := s.outStuck, s.outTail
	lo, hi := s.outLo, s.outHi
	if inCluster {
		stuck, tail = s.inStuck, s.inTail
		lo, hi = s.inLo, s.inHi
	}
	// No jitter branch can exceed max(stuck, hi), so a draw at or above
	// it is clean on every branch — the hot early-out that keeps the
	// per-bit cost at one SplitMix round for clean cells.
	maxThr := stuck
	if s.jitter && hi > maxThr {
		maxThr = hi
	}
	if maxThr == 0 {
		return
	}
	base := prf.Mix64(prf.Hash3(s.seed^saltVc, uint64(s.idx), addr))
	for bit := 0; bit < 256; bit++ {
		u := prf.Mix64(base ^ uint64(bit))
		if u >= maxThr {
			continue
		}
		thr := stuck
		if s.jitter {
			// Marginal cells see a per-(cell, rep) effective voltage
			// within ±JitterMV: 25% low, 50% nominal, 25% high.
			j := prf.Hash5(s.seed^saltJitter, uint64(s.idx), addr, uint64(bit), s.rep)
			switch j & 3 {
			case 0:
				thr = lo
			case 1:
				thr = hi
			}
		}
		if u >= thr {
			continue
		}
		pol := StuckAt0
		if u >= tail {
			// Below the tail the polarity is an independent stable draw.
			pu := prf.Hash4(s.seed^saltPol, uint64(s.idx), addr, uint64(bit))
			if prf.Float64(pu) < pStuckAt1 {
				pol = StuckAt1
			}
		}
		visit(addr, CellFault{Bit: bit, Polarity: pol})
	}
}

// RangeFaults visits every stuck cell in the word-address window
// [start, start+count), in ascending (address, bit) order. On the
// bit-exact path it walks only the rows that can hold faults — when the
// supply is above the bulk knee that is just the precomputed weak-cluster
// ranges, so clean regions cost nothing. In sparse mode it enumerates
// the per-row draws directly and costs O(#faults in the window).
func (s *Sampler) RangeFaults(start, count uint64, visit func(addr uint64, f CellFault)) {
	if count == 0 || !s.anyFaults {
		return
	}
	if s.sparse {
		s.sparseRange(start, count, visit)
		return
	}
	end := start + count
	if !s.clusterOnly {
		for a := start; a < end; a++ {
			s.wordFaults(a, visit)
		}
		return
	}
	wpr := s.wordsPerRow
	for _, r := range s.m.clusters[s.idx].ranges {
		lo, hi := r.Lo*wpr, r.Hi*wpr
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		for a := lo; a < hi; a++ {
			s.wordFaults(a, visit)
		}
	}
}

// RangeFaultWords groups RangeFaults by word: visit receives each
// faulted word address once, with its stuck cells in bit order. The
// slice is reused between calls; copy it to retain.
func (s *Sampler) RangeFaultWords(start, count uint64, visit func(addr uint64, fs []CellFault)) {
	g := grouper{visit: visit}
	s.RangeFaults(start, count, g.add)
	g.flush()
}

// grouper converts a flat (addr, fault) stream into per-word batches.
type grouper struct {
	visit  func(addr uint64, fs []CellFault)
	buf    []CellFault
	cur    uint64
	active bool
}

func (g *grouper) add(addr uint64, f CellFault) {
	if g.active && addr != g.cur {
		g.visit(g.cur, g.buf)
		g.buf = g.buf[:0]
	}
	g.cur = addr
	g.active = true
	g.buf = append(g.buf, f)
}

func (g *grouper) flush() {
	if g.active {
		g.visit(g.cur, g.buf)
		g.buf = g.buf[:0]
		g.active = false
	}
}

// Overlay applies stuck-cell faults to a stored word, producing what a
// read returns.
func Overlay(w pattern.Word, fs []CellFault) pattern.Word {
	for _, f := range fs {
		w = f.apply(w)
	}
	return w
}

// apply returns w as read through the stuck cell f.
func (f CellFault) apply(w pattern.Word) pattern.Word {
	if f.Polarity == StuckAt0 {
		return w.SetBit(f.Bit, 0)
	}
	return w.SetBit(f.Bit, 1)
}

// MightFault reports whether any cell of the sampled PC can be stuck at
// this sampler's voltage; false means reads are guaranteed clean.
func (s *Sampler) MightFault() bool { return s.anyFaults }

// InCluster reports whether the given word address lies inside a weak
// cluster of the sampled PC.
func (s *Sampler) InCluster(addr uint64) bool {
	return s.m.clusters[s.idx].contains(addr / s.wordsPerRow)
}

// ClusterRanges returns the merged weak-cluster row ranges of (stack,pc)
// as [lo,hi) pairs, for reporting.
func (m *Model) ClusterRanges(stack, pc int) [][2]uint64 {
	rs := m.clusters[pcIndex(stack, pc)].Ranges()
	out := make([][2]uint64, len(rs))
	for i, r := range rs {
		out[i] = [2]uint64{r.Lo, r.Hi}
	}
	return out
}

// ClusterCoverage returns the fraction of (stack,pc)'s rows covered by
// weak clusters.
func (m *Model) ClusterCoverage(stack, pc int) float64 {
	return m.coverage[pcIndex(stack, pc)]
}
