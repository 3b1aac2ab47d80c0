package service

import (
	"sync"

	"hbmvolt/internal/lru"
	"hbmvolt/internal/telemetry"
)

// cached is one result-cache entry. Payload slices are stored and
// returned by reference and must be treated as immutable by all
// parties; by the determinism contract a key's payload never changes,
// so both tiers keep the first write.
type cached struct {
	payload []byte
	// durable reports whether the payload may be written to the disk
	// tier: true for local compute, fleet-admitted replicas and disk
	// hits; false for a forwarded payload the replicator skipped, so the
	// replica byte budget bounds what remote data ever lands on disk.
	durable bool
}

// resultCache is the manager's result store: a byte- and entry-bounded
// memory LRU (internal/lru), plus the crash-durable DiskTier when the
// manager has a cache directory. Durable entries are written through to
// disk, so a crash after Put returns loses nothing a restart cannot
// re-read; a lookup tries memory, then disk, and promotes a disk hit
// into memory, so a payload that survived a restart is served from
// memory from its second read on. It also owns the hit/miss accounting
// /healthz reports.
//
// Eviction pressure is measured in payload bytes, uniformly across
// result kinds: a campaign analytic envelope (a faultmap study carries
// the whole Fig. 4/5/6 atlas) weighs what it actually retains, the same
// way sweep payloads do, rather than counting as one entry like a
// two-point reliability sweep. An entry-count bound still applies on
// top, so a flood of tiny payloads cannot grow the index without limit.
type resultCache struct {
	// mu guards mem and serializes promotion and write-through, so a
	// disk hit and a concurrent Put of the same key cannot interleave.
	mu   sync.Mutex
	mem  *lru.Cache[uint64, cached]
	disk *DiskTier // nil without a cache directory

	// memHit/memMiss and diskHit/diskMiss are the
	// hbmvolt_cache_requests_total series: a hit answers from that tier,
	// a miss falls through to the next (or, from the last tier, to
	// compute). The disk series exist only with a disk tier. /healthz
	// derives its cache_hits/cache_misses from these same counters —
	// Touch counts as a memory hit, a composite miss is a last-tier miss.
	memHit, memMiss, diskHit, diskMiss *telemetry.Counter
}

// newResultCache builds the store: a memory LRU bounded by entry count
// and total payload bytes, over disk when non-nil. Its lookup counters
// are registered in met (nil met gets a private throwaway registry, for
// tests that only care about cache behavior).
func newResultCache(met *serviceMetrics, entries int, maxBytes int64, disk *DiskTier) *resultCache {
	if met == nil {
		met = newServiceMetrics(telemetry.NewRegistry())
	}
	c := &resultCache{
		mem:     lru.New[uint64, cached](max(entries, 1), max(maxBytes, 1)),
		disk:    disk,
		memHit:  met.cacheReq.With("memory", "hit"),
		memMiss: met.cacheReq.With("memory", "miss"),
	}
	if disk != nil {
		c.diskHit = met.cacheReq.With("disk", "hit")
		c.diskMiss = met.cacheReq.With("disk", "miss")
	}
	return c
}

// getTier returns the entry for key from the fastest tier holding it,
// plus that tier's name for the trace layer's cache.lookup spans. A disk
// hit is promoted into memory.
func (c *resultCache) getTier(key uint64) (e cached, tier string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem.Get(key); ok {
		c.memHit.Inc()
		return e, "memory", true
	}
	c.memMiss.Inc()
	if c.disk == nil {
		return cached{}, "", false
	}
	payload, ok := c.disk.Get(key)
	if !ok {
		c.diskMiss.Inc()
		return cached{}, "", false
	}
	e = cached{payload: payload, durable: true}
	c.mem.Add(key, e, int64(len(payload)))
	c.diskHit.Inc()
	return e, "disk", true
}

// Put stores an entry in memory and, when it is durable, writes it
// through to disk.
func (c *resultCache) Put(key uint64, e cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, e)
}

// Touch records a served-from-cache event for an entry that may or may
// not still be resident: resident entries are refreshed, evicted ones
// re-inserted (a durable payload that only survived on a completed job
// is re-written to disk). Either way it counts as a hit — the caller
// served the bytes without recomputation, which is what the hit counter
// measures.
func (c *resultCache) Touch(key uint64, e cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memHit.Inc()
	c.putLocked(key, e)
}

func (c *resultCache) putLocked(key uint64, e cached) {
	c.mem.Add(key, e, int64(len(e.payload)))
	if e.durable && c.disk != nil {
		c.disk.Put(key, e.payload)
	}
}

// Len returns the live entry count of the memory tier.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Len()
}

// Bytes returns the payload bytes retained by the memory tier.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Bytes()
}

// Evictions returns the memory tier's cumulative capacity evictions.
func (c *resultCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Evictions()
}

// Stats returns cumulative hit/miss counters, read from the same
// telemetry series /metrics renders: hits across both tiers (Touch
// included), misses of the last tier (a composite miss).
func (c *resultCache) Stats() (hits, misses uint64) {
	if c.disk == nil {
		return c.memHit.Value(), c.memMiss.Value()
	}
	return c.memHit.Value() + c.diskHit.Value(), c.diskMiss.Value()
}

// Close flushes the disk tier, if any.
func (c *resultCache) Close() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.Close()
}
