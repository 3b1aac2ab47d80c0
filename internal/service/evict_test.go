package service

import (
	"context"
	"fmt"
	"testing"
)

// instantRunner replaces the sweep path with one that finishes at once.
func instantRunner(_ context.Context, j *Job) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"seed":%d}`, j.Req.Seed)), nil
}

// evictRequest is a small valid sweep request, distinct per seed.
func evictRequest(seed uint64) SweepRequest {
	return SweepRequest{
		Kind: KindReliability, Seed: seed, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	}
}

// submitDone submits req and waits for the job to finish.
func submitDone(t *testing.T, m *Manager, req SweepRequest) *Job {
	t.Helper()
	j, _, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != StateDone {
		t.Fatalf("job %s: state %v, err %v", j.ID, st, err)
	}
	return j
}

// TestEvictionSparesTouchedJob: a submission that coalesces onto a
// done job makes it the newest record, so the next eviction drops an
// older one instead of the record the caller just received.
func TestEvictionSparesTouchedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 2})
	defer m.Close()
	m.runSweep = instantRunner

	a := submitDone(t, m, evictRequest(1))
	b := submitDone(t, m, evictRequest(2))
	// Resubmitting a's key coalesces onto the done record.
	again, coalesced, hit, err := m.Submit(evictRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if again != a || !coalesced || !hit {
		t.Fatalf("resubmit = %s (coalesced %v, hit %v), want cache hit on %s", again.ID, coalesced, hit, a.ID)
	}
	// A third key overflows MaxJobs: b, not the touched a, is evicted.
	submitDone(t, m, evictRequest(3))
	if _, ok := m.Job(a.ID); !ok {
		t.Fatalf("touched job %s was evicted", a.ID)
	}
	if _, ok := m.Job(b.ID); ok {
		t.Fatalf("untouched older job %s survived", b.ID)
	}
}

// TestEvictionAllocationFree: removing the oldest record shifts the
// order slice in place rather than copying it. Each run registers one
// prebuilt done job and evicts the oldest, as a steady-state
// submission at a full job table does.
func TestEvictionAllocationFree(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 256})
	defer m.Close()
	jobs := make([]*Job, 2*m.cfg.MaxJobs)
	for i := range jobs {
		jobs[i] = &Job{ID: fmt.Sprintf("swp-%06d", i), Key: uint64(i), state: StateDone}
	}
	next := 0
	register := func() {
		j := jobs[next%len(jobs)]
		next++
		m.jobs[j.ID] = j
		m.byKey[j.Key] = j
		m.order = append(m.order, j.ID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.jobs) < m.cfg.MaxJobs {
		register()
	}
	allocs := testing.AllocsPerRun(200, func() {
		register()
		m.evictLocked()
	})
	if allocs != 0 {
		t.Fatalf("eviction allocates %v times per submission, want 0", allocs)
	}
	if len(m.jobs) != m.cfg.MaxJobs || len(m.order) != m.cfg.MaxJobs {
		t.Fatalf("table holds %d jobs, order %d, want %d", len(m.jobs), len(m.order), m.cfg.MaxJobs)
	}
}
