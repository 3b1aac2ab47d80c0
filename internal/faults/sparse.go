package faults

// Sparse fault enumeration: instead of drawing every cell's critical
// voltage (256 hashes per word), this mode draws each row's fault count
// and fault positions directly, keyed on (seed, PC, row, rep, voltage).
// Range scans then cost O(#faults touched) rather than O(bits scanned),
// which is what makes whole-HBM Algorithm 1 sweeps at the paper's full
// memSize tractable. Above a per-segment expected-fault threshold even
// the positions stop mattering for uniform-pattern checks, and the flip
// counters are drawn in aggregate from the same binomial statistics the
// analytic path integrates (keyed additionally on the expected/stored
// word pair, so the two pattern tests draw independent measurement
// noise).
//
// Every draw here is a pure function of its key — there is no stream
// shared across voltages, patterns or pseudo channels — which is the
// property that lets the sweep scheduler shard voltage points across a
// board fleet and still produce bit-identical results at any worker
// count.
//
// The sparse device is a different realization than the bit-exact one
// (and, unlike it, re-rolls whole rows across batch reps rather than
// jittering only marginal cells), but both follow the same survival
// functions; sparse_test.go pins the agreement against analytic.go
// within Poisson bounds.

import (
	"math"
	"sync"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// sparseEnumThreshold is the expected-fault count per segment above
// which CheckUniformRange stops drawing individual fault positions and
// draws aggregate flip counts instead.
const sparseEnumThreshold = 4096

// Sparse reports whether this sampler uses the O(#faults) sparse
// enumeration mode (Config.SparseEnumeration) instead of the bit-exact
// per-cell draw.
func (s *Sampler) Sparse() bool { return s.sparse }

// regionParams returns the per-cell stuck probability and its
// always-stuck-at-0 tail for cells inside or outside clusters, at the
// sampler's voltage.
func (s *Sampler) regionParams(in bool) (p, t float64) {
	p = s.m.cellSurvival(s.idx, s.v, in)
	t = math.Min(p, s.m.cellSurvival(s.idx, polarityTailV, in))
	return p, t
}

// segments splits the word window [start, end) into maximal runs that
// are entirely inside or entirely outside weak clusters, in ascending
// order. Cluster ranges are row-granular, so boundaries fall on row
// multiples (except the clamped window edges).
func (s *Sampler) segments(start, end uint64, visit func(lo, hi uint64, in bool)) {
	wpr := s.wordsPerRow
	a := start
	for _, r := range s.m.clusters[s.idx].ranges {
		lo, hi := r.Lo*wpr, r.Hi*wpr
		if hi <= a {
			continue
		}
		if lo >= end {
			break
		}
		if lo > a {
			visit(a, lo, false)
			a = lo
		}
		if hi > end {
			hi = end
		}
		if a < hi {
			visit(a, hi, true)
			a = hi
		}
		if a >= end {
			return
		}
	}
	if a < end {
		visit(a, end, false)
	}
}

// sparseRange enumerates the sparse-mode faults of [start, start+count)
// in ascending (address, bit) order.
func (s *Sampler) sparseRange(start, count uint64, visit func(addr uint64, f CellFault)) {
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		s.sparseSegmentFaults(lo, hi, p, t, visit)
	})
}

// sparseSegmentFaults yields the faults of the homogeneous segment
// [lo, hi) (cell stuck probability p, stuck-at-0 tail t) row by row,
// in ascending (address, bit) order.
func (s *Sampler) sparseSegmentFaults(lo, hi uint64, p, t float64, visit func(addr uint64, f CellFault)) {
	if p <= 0 || lo >= hi {
		return
	}
	d := newRowDraw(int(s.wordsPerRow)*256, p, t)
	wpr := s.wordsPerRow
	for r := lo / wpr; r*wpr < hi; r++ {
		rlo, rhi := r*wpr, (r+1)*wpr
		if rlo < lo {
			rlo = lo
		}
		if rhi > hi {
			rhi = hi
		}
		s.sparseRowFaults(r, rlo, rhi, &d, visit)
	}
}

// rowDraw holds the per-row draw parameters that depend only on the
// segment, computed once per segment instead of once per row.
type rowDraw struct {
	nBits   int
	p1Share float64 // share of drawn faults that are stuck-at-1
	binom   binomial
}

func newRowDraw(nBits int, p, t float64) rowDraw {
	return rowDraw{
		nBits:   nBits,
		p1Share: (p - t) * pStuckAt1 / p,
		binom:   newBinomial(nBits, p),
	}
}

// rowScratch is a reusable fault-key buffer for sparseRowFaults.
// Scratch lives in a pool, not on the Sampler, which stays immutable
// and safe for concurrent use.
type rowScratch struct{ buf []uint64 }

var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// sparseRowFaults draws row's fault count and positions and yields the
// faults whose word address falls in [lo, hi). The draws depend only on
// (seed, PC, row, rep, voltage), never on the query window or on any
// previously evaluated voltage point, so overlapping range scans — and
// sweeps sharded across a board fleet in any order — observe one
// consistent device.
func (s *Sampler) sparseRowFaults(row, lo, hi uint64, d *rowDraw, visit func(addr uint64, f CellFault)) {
	if lo >= hi {
		return
	}
	src := prf.NewSource(prf.Hash5(s.seed^saltSparse, uint64(s.idx), row, s.rep, s.vbits))
	k := d.binom.draw(src)
	if k == 0 {
		return
	}
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	// Each fault consumes exactly two stream words (position, polarity),
	// so the draws are pulled in blocks via Fill — identical values to
	// sequential Intn/Float64 calls, without the per-draw call setup.
	buf := sc.buf[:0]
	var draws [256]uint64
	for j := 0; j < k; {
		chunk := k - j
		if chunk > len(draws)/2 {
			chunk = len(draws) / 2
		}
		dr := draws[:2*chunk]
		src.Fill(dr)
		for c := 0; c < chunk; c++ {
			pol := StuckAt0
			if prf.Float64(dr[2*c+1]) < d.p1Share {
				pol = StuckAt1
			}
			buf = append(buf, faultKey(dr[2*c]%uint64(d.nBits), pol))
		}
		j += chunk
	}
	sc.buf = buf
	// On a collision the polarity that survives is the one the sort
	// orders first, so the sort is part of the realization; see
	// keysort.go.
	sortFaultKeys(buf)
	rowBase := row * s.wordsPerRow
	prev := ^uint64(0)
	for _, key := range buf {
		pos := key >> 1
		if pos == prev {
			continue // collision: one cell, one fault
		}
		prev = pos
		addr := rowBase + pos/256
		if addr < lo || addr >= hi {
			continue
		}
		visit(addr, CellFault{Bit: int(pos % 256), Polarity: Polarity(key & 1)})
	}
}

// binomial draws deterministic Binomial(n, p) variates: Poisson
// inversion in the sparse regime, a clamped normal approximation
// otherwise. The parameters that depend only on (n, p) — including
// exp(-λ) — are computed once, when the binomial is built.
type binomial struct {
	n       int
	p, lam  float64
	poisson bool
	expNeg  float64 // exp(-λ), Poisson regime
	sd      float64 // sqrt(λ(1-p)), normal regime
}

func newBinomial(n int, p float64) binomial {
	b := binomial{n: n, p: p, lam: float64(n) * p}
	if p <= 0 || n <= 0 || p >= 1 {
		return b
	}
	b.poisson = b.lam < 32 && p < 0.1
	if b.poisson {
		b.expNeg = math.Exp(-b.lam)
	} else {
		b.sd = math.Sqrt(b.lam * (1 - p))
	}
	return b
}

// draw returns one variate from src.
func (b *binomial) draw(src *prf.Source) int {
	if b.p <= 0 || b.n <= 0 {
		return 0
	}
	if b.p >= 1 {
		return b.n
	}
	if b.poisson {
		u := src.Float64()
		acc := b.expNeg
		cum := acc
		k := 0
		for u > cum && k < b.n {
			k++
			acc *= b.lam / float64(k)
			cum += acc
		}
		return k
	}
	k := int(math.Round(b.lam + src.Norm()*b.sd))
	if k < 0 {
		return 0
	}
	if k > b.n {
		return b.n
	}
	return k
}

// adjuster corrects a uniform expected/stored baseline for a stream of
// faults grouped by word in ascending address order: each faulted word
// is re-read with its overlay — applied fault by fault as the stream
// arrives, so no per-word buffer is kept — and its Compare result
// replaces the baseline's contribution.
type adjuster struct {
	expected, stored pattern.Word
	base             pattern.Flips
	flips            *pattern.Flips
	faulty           *uint64
	cur              uint64
	read             pattern.Word // cur's stored word with its faults so far
	active           bool
}

// add folds one fault of word addr into the read-back of that word.
func (a *adjuster) add(addr uint64, f CellFault) {
	if a.active && addr != a.cur {
		a.flush()
	}
	if !a.active {
		a.cur, a.read, a.active = addr, a.stored, true
	}
	a.read = f.apply(a.read)
}

// flush settles the word in progress.
func (a *adjuster) flush() {
	if !a.active {
		return
	}
	a.active = false
	f := pattern.Compare(a.expected, a.read)
	a.flips.OneToZero += f.OneToZero - a.base.OneToZero
	a.flips.ZeroToOne += f.ZeroToOne - a.base.ZeroToOne
	if a.base.Total() > 0 {
		if f.Total() == 0 {
			*a.faulty-- // the overlay happened to restore the expected word
		}
	} else if f.Total() > 0 {
		*a.faulty++
	}
}

// CheckUniformRange returns the flip statistics of reading the uniform
// word stored back against the uniform word expected over the window
// [start, start+count): total 1→0 / 0→1 flips and the number of words
// with at least one flip. On the bit-exact path the result is
// bit-identical to reading and comparing every word; in sparse mode
// low-rate segments enumerate their drawn faults and high-rate segments
// draw the counters in aggregate.
func (s *Sampler) CheckUniformRange(start, count uint64, expected, stored pattern.Word) (pattern.Flips, uint64) {
	base := pattern.Compare(expected, stored)
	flips := pattern.Flips{
		OneToZero: base.OneToZero * int(count),
		ZeroToOne: base.ZeroToOne * int(count),
	}
	var faulty uint64
	if base.Total() > 0 {
		faulty = count
	}
	if count == 0 || !s.anyFaults {
		return flips, faulty
	}
	if !s.sparse {
		adj := adjuster{expected: expected, stored: stored, base: base, flips: &flips, faulty: &faulty}
		s.RangeFaults(start, count, adj.add)
		adj.flush()
		return flips, faulty
	}
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		s.checkSegment(lo, hi, in, expected, stored, base, &flips, &faulty)
	})
	return flips, faulty
}

// checkSegment accumulates one homogeneous segment's sparse-mode flip
// statistics into flips/faulty (which already hold the fault-free
// baseline for the whole window).
func (s *Sampler) checkSegment(lo, hi uint64, in bool, expected, stored pattern.Word, base pattern.Flips, flips *pattern.Flips, faulty *uint64) {
	p, t := s.regionParams(in)
	if p <= 0 {
		return // baseline already accounts for a fault-free segment
	}
	n := hi - lo
	if lam := float64(n) * 256 * p; lam <= sparseEnumThreshold {
		adj := adjuster{expected: expected, stored: stored, base: base, flips: flips, faulty: faulty}
		s.sparseSegmentFaults(lo, hi, p, t, adj.add)
		adj.flush()
		return
	}

	// Aggregate regime: draw the segment's flip totals directly. Bits
	// fall into four categories by (expected, stored) value; a
	// stuck-at-0 cell flips 1→0 wherever expected is 1, a stuck-at-1
	// cell flips 0→1 wherever expected is 0, and bits where stored
	// already mismatches expected flip unless a fault happens to mask
	// them.
	p0 := t + (p-t)*(1-pStuckAt1) // per-cell stuck-at-0 probability
	p1 := (p - t) * pStuckAt1     // per-cell stuck-at-1 probability
	n11 := expected.And(stored).OnesCount()
	n10 := expected.AndNot(stored).OnesCount()
	n01 := stored.AndNot(expected).OnesCount()
	n00 := 256 - n11 - n10 - n01
	fn := float64(n)

	src := prf.NewSource(prf.Hash5(s.seed^saltAggregate, uint64(s.idx), lo, s.rep,
		s.vbits^wordPairSig(expected, stored)))
	mean10 := fn * (float64(n11)*p0 + float64(n10)*(1-p1))
	var10 := fn * (float64(n11)*p0*(1-p0) + float64(n10)*(1-p1)*p1)
	d10 := gaussCount(src, mean10, var10, n*uint64(n11+n10))
	mean01 := fn * (float64(n01)*(1-p0) + float64(n00)*p1)
	var01 := fn * (float64(n01)*(1-p0)*p0 + float64(n00)*p1*(1-p1))
	d01 := gaussCount(src, mean01, var01, n*uint64(n01+n00))

	// Clean-word probability: every bit must read back equal to expected.
	lnq, qZero := 0.0, false
	mul := func(cnt int, term float64) {
		if cnt == 0 {
			return
		}
		if term <= 0 {
			qZero = true
			return
		}
		lnq += float64(cnt) * math.Log(term)
	}
	mul(n11, 1-p0)
	mul(n10, p1)
	mul(n01, p0)
	mul(n00, 1-p1)
	q := 0.0
	if !qZero {
		q = math.Exp(lnq)
	}
	clean := gaussCount(src, fn*q, fn*q*(1-q), n)
	fw := n - clean

	// Physical clamps: each faulty word carries 1..256 flips.
	total := d10 + d01
	if fw > total {
		fw = total
	}
	if minW := (total + 255) / 256; fw < minW {
		fw = minW
	}

	// Replace this segment's baseline contribution with the draws.
	flips.OneToZero += int(d10) - base.OneToZero*int(n)
	flips.ZeroToOne += int(d01) - base.ZeroToOne*int(n)
	if base.Total() > 0 {
		*faulty = *faulty - n + fw
	} else {
		*faulty += fw
	}
}

// wordPairSig folds an (expected, stored) word pair into one key word,
// so aggregate draws for different patterns at the same segment are
// independent rather than sharing one stream.
func wordPairSig(expected, stored pattern.Word) uint64 {
	return prf.Hash4(expected[0], expected[1], expected[2], expected[3]) ^
		prf.Mix64(prf.Hash4(stored[0], stored[1], stored[2], stored[3]))
}

// gaussCount draws a normal-approximated count with the given mean and
// variance, clamped to [0, max].
func gaussCount(src *prf.Source, mean, variance float64, max uint64) uint64 {
	if mean <= 0 {
		return 0
	}
	sd := 0.0
	if variance > 0 {
		sd = math.Sqrt(variance)
	}
	k := math.Round(mean + src.Norm()*sd)
	if k <= 0 {
		return 0
	}
	if k >= float64(max) {
		return max
	}
	return uint64(k)
}
