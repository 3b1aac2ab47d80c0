package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"hbmvolt/internal/hbm"
	"hbmvolt/internal/service"
)

// Every input the program receives is generated here from the workload
// seed: device seeds, ports, grids, patterns and Zipf ranks. Nothing
// else is random.

// sensitivePorts are the pseudo channels whose faults dominate near
// Vmin (the paper's weak PCs).
var sensitivePorts = []int{4, 5, 18, 19, 20}

// Input streams: each purpose draws from its own PCG stream of the
// workload seed, so adding draws to one never shifts another.
const (
	streamOpen uint64 = iota + 1
	streamClosed
	streamSetup
	streamWarmKeys
	streamZipf
	streamCampaign
)

// seedSet hands out device seeds that are unique within the process,
// so no request can find its physics already memoized by an earlier
// one (the rate atlas and enumeration store are process-wide).
type seedSet struct {
	mu   sync.Mutex
	used map[uint64]bool
}

func newSeedSet() *seedSet { return &seedSet{used: make(map[uint64]bool)} }

func (s *seedSet) draw(r *rand.Rand) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Seed 0 is the calibrated paper board; leave it out.
		if v := r.Uint64(); v != 0 && !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// coldRequest draws one reliability sweep of the cold mix: scale 1024,
// 3–4 ports with exactly one sensitive PC, a 4-point grid bottoming
// between 0.90 and 0.88 V, 1–2 patterns, batch 2.
func coldRequest(r *rand.Rand, seed uint64) service.SweepRequest {
	ports := []int{sensitivePorts[r.IntN(len(sensitivePorts))]}
	for n := 3 + r.IntN(2); len(ports) < n; {
		p := r.IntN(hbm.MaxPorts)
		if !slices.Contains(sensitivePorts, p) && !slices.Contains(ports, p) {
			ports = append(ports, p)
		}
	}
	slices.Sort(ports)
	bottom := 880 + 10*r.IntN(3) // mV
	grid := make([]float64, 4)
	for i := range grid {
		grid[i] = float64(bottom+10*(len(grid)-1-i)) / 1000
	}
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1024,
		Grid:     grid,
		Ports:    ports,
		Patterns: drawPatterns(r),
		Batch:    2,
	}
}

// setupRequest is the fixed-shape sweep set-ups warm up with; only the
// device comes from the seed, so set-up cost does not depend on drawn
// ports, grids or patterns.
func setupRequest(_ *rand.Rand, seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1024,
		Grid:     []float64{0.92, 0.91, 0.90, 0.89},
		Ports:    []int{3, 18, 27},
		Patterns: []string{"all1"},
		Batch:    2,
	}
}

// warmRequest draws key i of the warm set. Its grid stays above the
// first-fault voltage, so pre-computing it is cheap. Its shape (ports ×
// patterns × grid points, and so its payload size, roughly 1–60 KB) is
// fixed by i, so every seed puts the same payload sizes at the same
// Zipf ranks; the seed picks devices, ports and patterns.
func warmRequest(r *rand.Rand, seed uint64, i int) service.SweepRequest {
	var ports []int
	for n := 1 + i*3%10; len(ports) < n; {
		if p := r.IntN(hbm.MaxPorts); !slices.Contains(ports, p) {
			ports = append(ports, p)
		}
	}
	slices.Sort(ports)
	grid := make([]float64, 2+i*7%9)
	for k := range grid {
		grid[k] = float64(1100-10*k) / 1000
	}
	pats := []string{"all1", "all0", "checker"}
	r.Shuffle(len(pats), func(a, b int) { pats[a], pats[b] = pats[b], pats[a] })
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1024,
		Grid:     grid,
		Ports:    ports,
		Patterns: pats[:1+i/2%2],
		Batch:    1,
	}
}

// zipfSequence draws sweep-warm's requests with Zipf reuse: key k
// (0 = hottest) with probability ∝ 1/(1+k)^1.1.
func zipfSequence(seed, stream uint64, keys []prepared) *sequence {
	zipf := rand.NewZipf(newRand(seed, streamZipf<<8|stream), 1.1, 1, uint64(len(keys)-1))
	return &sequence{gen: func() (prepared, error) { return keys[zipf.Uint64()], nil }}
}

func drawPatterns(r *rand.Rand) []string {
	all := []string{"all1", "all0", "checker"}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:1+r.IntN(2)]
}

// prepared is a normalized request with its cache key, as the client
// expects the service to echo it.
type prepared struct {
	req service.SweepRequest
	key uint64
}

func prepare(req service.SweepRequest) (prepared, error) {
	if err := req.Normalize(); err != nil {
		return prepared{}, fmt.Errorf("generated request invalid: %w", err)
	}
	key, err := req.CacheKey()
	if err != nil {
		return prepared{}, err
	}
	return prepared{req: req, key: key}, nil
}

// sequence is a lazily generated request stream: element i is the
// same for a given seed however many goroutines ask, because elements
// are generated strictly in index order.
type sequence struct {
	mu    sync.Mutex
	gen   func() (prepared, error)
	items []prepared
}

func (s *sequence) get(i int) (prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		if s.gen == nil {
			return prepared{}, fmt.Errorf("request %d beyond a fixed sequence of %d", i, len(s.items))
		}
		p, err := s.gen()
		if err != nil {
			return prepared{}, err
		}
		s.items = append(s.items, p)
	}
	return s.items[i], nil
}
