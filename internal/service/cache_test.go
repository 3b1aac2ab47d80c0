package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// cacheMetricLines renders m's registry and keeps the result-cache and
// disk-tier families: the names CI's metricscheck and the benchmark's
// service.cache_* metrics read.
func cacheMetricLines(t *testing.T, m *Manager) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, fam := range []string{
			"hbmvolt_cache_requests_total", "hbmvolt_cache_entries", "hbmvolt_cache_bytes",
			"hbmvolt_cache_evictions_total", "hbmvolt_disk_recovered_entries_total",
			"hbmvolt_disk_discarded_entries_total",
		} {
			if strings.HasPrefix(name, fam+" ") || strings.HasPrefix(name, fam+"{") {
				keep = append(keep, line)
				break
			}
		}
	}
	return strings.Join(keep, "\n") + "\n"
}

// cacheScript is the fixed submit/evict/resubmit sequence the metrics
// pin runs: three keys overflow a 2-entry memory tier and a 1-record job
// table, then an evicted key is resubmitted (memory miss), resubmitted
// again (coalesced onto its record: a Touch), and a memory-resident key
// whose record is gone is resubmitted (memory hit).
func cacheScript(t *testing.T, m *Manager) {
	t.Helper()
	for _, seed := range []uint64{1, 2, 3, 1, 1, 3} {
		submitDone(t, m, evictRequest(seed))
	}
}

// TestCacheMetricsSurface pins the result-cache /metrics families —
// names, help, labels, sample order and values — after a fixed script,
// on a memory-only manager, a disk-backed one, and a disk-backed one
// restarted over a directory holding a corrupt entry.
func TestCacheMetricsSurface(t *testing.T) {
	open := func(dir string) *Manager {
		t.Helper()
		logger, _ := collectLogs(t)
		m, err := OpenManager(Config{Workers: 1, CacheEntries: 2, MaxJobs: 1, CacheDir: dir, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		m.runSweep = instantRunner
		return m
	}

	mem := open("")
	cacheScript(t, mem)
	got := cacheMetricLines(t, mem)
	mem.Close()
	if want := `# HELP hbmvolt_cache_bytes Payload bytes retained per result-cache tier.
# TYPE hbmvolt_cache_bytes gauge
hbmvolt_cache_bytes{tier="memory"} 20
# HELP hbmvolt_cache_entries Entries retained per result-cache tier.
# TYPE hbmvolt_cache_entries gauge
hbmvolt_cache_entries{tier="memory"} 2
# HELP hbmvolt_cache_evictions_total Capacity evictions per result-cache tier.
# TYPE hbmvolt_cache_evictions_total counter
hbmvolt_cache_evictions_total{tier="memory"} 2
# HELP hbmvolt_cache_requests_total Result-cache lookups per tier: a hit serves bytes from that tier, a miss falls through to the next tier (or to compute from the last).
# TYPE hbmvolt_cache_requests_total counter
hbmvolt_cache_requests_total{tier="memory",outcome="hit"} 2
hbmvolt_cache_requests_total{tier="memory",outcome="miss"} 4
`; got != want {
		t.Errorf("memory-only /metrics:\n%s\nwant:\n%s", got, want)
	}

	dir := t.TempDir()
	disk := open(dir)
	cacheScript(t, disk)
	got = cacheMetricLines(t, disk)
	disk.Close()
	if want := `# HELP hbmvolt_cache_bytes Payload bytes retained per result-cache tier.
# TYPE hbmvolt_cache_bytes gauge
hbmvolt_cache_bytes{tier="disk"} 30
hbmvolt_cache_bytes{tier="memory"} 20
# HELP hbmvolt_cache_entries Entries retained per result-cache tier.
# TYPE hbmvolt_cache_entries gauge
hbmvolt_cache_entries{tier="disk"} 3
hbmvolt_cache_entries{tier="memory"} 2
# HELP hbmvolt_cache_evictions_total Capacity evictions per result-cache tier.
# TYPE hbmvolt_cache_evictions_total counter
hbmvolt_cache_evictions_total{tier="disk"} 0
hbmvolt_cache_evictions_total{tier="memory"} 2
# HELP hbmvolt_cache_requests_total Result-cache lookups per tier: a hit serves bytes from that tier, a miss falls through to the next tier (or to compute from the last).
# TYPE hbmvolt_cache_requests_total counter
hbmvolt_cache_requests_total{tier="disk",outcome="hit"} 1
hbmvolt_cache_requests_total{tier="disk",outcome="miss"} 3
hbmvolt_cache_requests_total{tier="memory",outcome="hit"} 2
hbmvolt_cache_requests_total{tier="memory",outcome="miss"} 4
# HELP hbmvolt_disk_discarded_entries_total Disk-tier entries discarded as torn or corrupt (boot scan and read-time verification).
# TYPE hbmvolt_disk_discarded_entries_total counter
hbmvolt_disk_discarded_entries_total 0
# HELP hbmvolt_disk_recovered_entries_total Disk-tier entries the boot recovery scan verified and repopulated.
# TYPE hbmvolt_disk_recovered_entries_total counter
hbmvolt_disk_recovered_entries_total 0
`; got != want {
		t.Errorf("disk-backed /metrics:\n%s\nwant:\n%s", got, want)
	}

	// Corrupt key 3's entry: the restart's boot scan recovers 2 entries
	// and discards 1; key 2 then hits disk and key 3 recomputes.
	req := evictRequest(3)
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.cache", key)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	restarted := open(dir)
	defer restarted.Close()
	submitDone(t, restarted, evictRequest(2))
	submitDone(t, restarted, evictRequest(3))
	got = cacheMetricLines(t, restarted)
	if want := `# HELP hbmvolt_cache_bytes Payload bytes retained per result-cache tier.
# TYPE hbmvolt_cache_bytes gauge
hbmvolt_cache_bytes{tier="disk"} 30
hbmvolt_cache_bytes{tier="memory"} 20
# HELP hbmvolt_cache_entries Entries retained per result-cache tier.
# TYPE hbmvolt_cache_entries gauge
hbmvolt_cache_entries{tier="disk"} 3
hbmvolt_cache_entries{tier="memory"} 2
# HELP hbmvolt_cache_evictions_total Capacity evictions per result-cache tier.
# TYPE hbmvolt_cache_evictions_total counter
hbmvolt_cache_evictions_total{tier="disk"} 0
hbmvolt_cache_evictions_total{tier="memory"} 0
# HELP hbmvolt_cache_requests_total Result-cache lookups per tier: a hit serves bytes from that tier, a miss falls through to the next tier (or to compute from the last).
# TYPE hbmvolt_cache_requests_total counter
hbmvolt_cache_requests_total{tier="disk",outcome="hit"} 1
hbmvolt_cache_requests_total{tier="disk",outcome="miss"} 1
hbmvolt_cache_requests_total{tier="memory",outcome="hit"} 0
hbmvolt_cache_requests_total{tier="memory",outcome="miss"} 2
# HELP hbmvolt_disk_discarded_entries_total Disk-tier entries discarded as torn or corrupt (boot scan and read-time verification).
# TYPE hbmvolt_disk_discarded_entries_total counter
hbmvolt_disk_discarded_entries_total 1
# HELP hbmvolt_disk_recovered_entries_total Disk-tier entries the boot recovery scan verified and repopulated.
# TYPE hbmvolt_disk_recovered_entries_total counter
hbmvolt_disk_recovered_entries_total 2
`; got != want {
		t.Errorf("restarted /metrics:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultCacheConcurrentServes hammers a disk-backed store with
// overlapping Gets, Puts and Touches of durable and non-durable entries
// while /metrics and /healthz are read: payloads come back unchanged
// with their durable bit, no non-durable key ever reaches disk, and the
// lookup counters balance (every lookup is a hit or a last-tier miss).
func TestResultCacheConcurrentServes(t *testing.T) {
	logger, _ := collectLogs(t)
	m, err := OpenManager(Config{Workers: 1, CacheEntries: 4, CacheDir: t.TempDir(), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := m.cache

	const keys, goroutines, ops = 12, 4, 300
	// Even keys are durable, odd keys are forwards the replicator skipped.
	entry := func(k uint64) cached {
		return cached{payload: []byte(strings.Repeat(fmt.Sprintf("payload-%d;", k), int(k)+1)), durable: k%2 == 0}
	}

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := m.Metrics().WriteTo(&buf); err != nil {
				t.Error(err)
			}
			m.Stats()
		}
	}()

	var (
		wg               sync.WaitGroup
		mu               sync.Mutex
		lookups, touches uint64
	)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l, tc uint64
			for i := range ops {
				k := uint64((i*7 + g*5) % keys)
				want := entry(k)
				switch (i + g) % 3 {
				case 0:
					l++
					got, tier, ok := c.getTier(k)
					if !ok {
						continue
					}
					if !bytes.Equal(got.payload, want.payload) || got.durable != want.durable {
						t.Errorf("key %d from %s: %q (durable %v), want %q (durable %v)",
							k, tier, got.payload, got.durable, want.payload, want.durable)
					}
				case 1:
					c.Put(k, want)
				case 2:
					tc++
					c.Touch(k, want)
				}
			}
			mu.Lock()
			lookups += l
			touches += tc
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped

	for k := uint64(0); k < keys; k++ {
		payload, onDisk := c.disk.Get(k)
		if want := entry(k); onDisk && (!want.durable || !bytes.Equal(payload, want.payload)) {
			t.Errorf("key %d on disk as %q (durable %v)", k, payload, want.durable)
		}
	}
	if st := c.disk.Stats(); st.Entries != keys/2 || st.Discarded != 0 {
		t.Errorf("disk tier = %+v, want exactly the %d durable keys", st, keys/2)
	}
	// Touch counts as a hit without a lookup.
	if hits, misses := c.Stats(); hits+misses != lookups+touches {
		t.Errorf("hits %d + misses %d != lookups %d + touches %d", hits, misses, lookups, touches)
	}
}
