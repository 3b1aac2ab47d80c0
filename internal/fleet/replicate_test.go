package fleet

import (
	"testing"
	"time"

	"hbmvolt/internal/service"
)

func TestReplicatorAdmit(t *testing.T) {
	r := replicator{budget: 100}
	if !r.admit(60) || !r.admit(40) {
		t.Fatal("payloads within the budget must be admitted")
	}
	if r.admit(1) {
		t.Fatal("a payload past the exhausted budget must be skipped")
	}
	if r.payloads.Load() != 2 || r.bytes.Load() != 100 || r.skipped.Load() != 1 {
		t.Fatalf("ledger = %d payloads / %d bytes / %d skipped, want 2/100/1",
			r.payloads.Load(), r.bytes.Load(), r.skipped.Load())
	}

	// A too-large payload is skipped but smaller later ones still fit.
	partial := replicator{budget: 100}
	if partial.admit(101) {
		t.Fatal("an over-budget payload must be skipped")
	}
	if !partial.admit(100) {
		t.Fatal("the remaining budget must stay available after a skip")
	}

	disabled := replicator{budget: -1}
	if disabled.admit(1) || disabled.skipped.Load() != 1 {
		t.Fatal("negative budget must skip everything, counting the skips")
	}
}

// TestReplicatedPayloadServedFromDiskAfterOwnerDeath is the tentpole's
// replication proof: a forwarded payload is written through to the
// requester's durable tier, so after the requester restarts (job table
// and memory cache gone) AND the owner dies, the key still serves from
// local disk — byte-identical, with sweep_runs staying 0.
func TestReplicatedPayloadServedFromDiskAfterOwnerDeath(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)
	want := localPayload(t, req)

	j, _, _, err := nodes[0].srv.Manager().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || !info.Replicated {
		t.Fatalf("ServeInfo = %+v, want a forwarded serve admitted for replication", info)
	}
	h := nodes[0].fwd.Health().(Health)
	if h.Replication.Payloads != 1 || h.Replication.Bytes != int64(len(want)) || h.Replication.Skipped != 0 {
		t.Fatalf("replication ledger = %+v, want exactly this payload's bytes admitted", h.Replication)
	}

	// Restart the requester's service over the same cache dir — its job
	// table and memory tier die with it — and kill the owner.
	nodes[0].hs.Close()
	nodes[0].srv.Close()
	nodes[1].kill()

	srv2, err := service.Open(service.Config{
		Workers: 2, QueueDepth: 64, CacheDir: dir, Forwarder: nodes[0].fwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	j2, _, _, err := srv2.Manager().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j2.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("post-restart Wait = %v, %v", st, err)
	}
	if string(j2.Payload()) != string(want) {
		t.Fatal("disk-served payload differs from single-node compute")
	}
	if runs := srv2.Manager().Runs(); runs != 0 {
		t.Fatalf("sweep_runs = %d after owner death, want 0 (replicated key must serve from the disk tier)", runs)
	}
	st := srv2.Manager().Stats()
	if st.DiskCache == nil || st.DiskCache.Recovered != 1 {
		t.Fatalf("disk tier = %+v, want the replicated payload recovered at boot", st.DiskCache)
	}
}

// TestReplicationBudgetExhaustedStaysOffDisk forwards with a 1-byte
// replica budget: the payload must be skipped (memory-only), the skip
// must be visible in the ledger, and the durable tier must stay empty.
func TestReplicationBudgetExhaustedStaysOffDisk(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
		if i == 0 {
			o.ReplicaBudget = 1 // any real payload overflows
		}
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)

	j, _, _, err := nodes[0].srv.Manager().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || info.Replicated {
		t.Fatalf("ServeInfo = %+v, want a forwarded serve NOT admitted for replication", info)
	}
	h := nodes[0].fwd.Health().(Health)
	if h.Replication.Payloads != 0 || h.Replication.Skipped != 1 || h.Replication.BudgetBytes != 1 {
		t.Fatalf("replication ledger = %+v, want the payload skipped under a 1-byte budget", h.Replication)
	}
	st := nodes[0].srv.Manager().Stats()
	if st.DiskCache == nil || st.DiskCache.Entries != 0 {
		t.Fatalf("disk tier = %+v, want no entries (skipped payloads stay memory-only)", st.DiskCache)
	}
	// The payload is still served hot from memory on a resubmit.
	j2, _, _, err := nodes[0].srv.Manager().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := j2.Wait(t.Context()); err != nil || st2 != service.StateDone {
		t.Fatalf("resubmit Wait = %v, %v", st2, err)
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 0 {
		t.Fatalf("requester ran %d sweeps, want 0 (memory tier serves the skipped payload)", runs)
	}
	// Serving it again must not sneak it onto disk past the budget.
	if st := nodes[0].srv.Manager().Stats(); st.DiskCache.Entries != 0 {
		t.Fatalf("disk tier = %+v after the resubmit, want no entries (a skipped payload stays memory-only on every serve)", st.DiskCache)
	}
}

// TestSkippedReplicaStaysOffDiskAfterRecordEviction covers the other
// serve path: once the skipped payload's job record is evicted, a
// resubmit is answered from the memory tier with a fresh pre-completed
// record, and a submission coalescing onto that record must not write
// the payload to disk either.
func TestSkippedReplicaStaysOffDiskAfterRecordEviction(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
		if i == 0 {
			o.ReplicaBudget = 1 // any real payload overflows
		}
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
			c.MaxJobs = 1
		}
	})
	mgr := nodes[0].srv.Manager()
	submit := func(req service.SweepRequest) *service.Job {
		t.Helper()
		j, _, _, err := mgr.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
			t.Fatalf("Wait = %v, %v", st, err)
		}
		return j
	}
	remote := smallReq(seedOwnedBy(t, nodes[0].fwd, nodes[1].url))
	if info := submit(remote).ServeInfo(); info.ServedBy != nodes[1].url || info.Replicated {
		t.Fatalf("ServeInfo = %+v, want a forwarded serve NOT admitted for replication", info)
	}
	// A locally owned key evicts the remote key's record (MaxJobs 1) and
	// lands on disk itself.
	submit(smallReq(seedOwnedBy(t, nodes[0].fwd, nodes[0].url)))
	before := mgr.Stats().DiskCache.Entries
	if before != 1 {
		t.Fatalf("disk entries = %d after the local compute, want 1", before)
	}
	submit(remote) // answered from memory: a new pre-completed record
	submit(remote) // coalesces onto that record
	if st := mgr.Stats(); st.DiskCache.Entries != before {
		t.Fatalf("disk tier = %+v, want %d entries (the skipped payload must stay off disk)", st.DiskCache, before)
	}
	if runs := mgr.Runs(); runs != 1 {
		t.Fatalf("sweep_runs = %d, want 1 (only the local key computes)", runs)
	}
}

// TestLocalPayloadsBypassReplicationBudget pins the budget's scope:
// locally computed sweeps always write through to the durable tier —
// the budget gates only remote payloads.
func TestLocalPayloadsBypassReplicationBudget(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		if i == 0 {
			o.ReplicaBudget = -1 // replication fully disabled
		}
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[0].url)
	j, _, _, err := nodes[0].srv.Manager().Submit(smallReq(seed))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	st := nodes[0].srv.Manager().Stats()
	if st.DiskCache == nil || st.DiskCache.Entries != 1 {
		t.Fatalf("disk tier = %+v, want the locally owned payload durable despite replication off", st.DiskCache)
	}
}
