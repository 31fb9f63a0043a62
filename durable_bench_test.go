package repro_test

// Durable fleet-sweep benchmark: the fleet benchmarks above measure the
// attestation control plane with persistence disabled. This benchmark
// runs PollAll with the state store AND the audit journal enabled, and
// persists each sweep through verifier.Persister — the same flush the
// verifier binary and cluster nodes run — in two modes:
//
//   off           no store, no audit journal — the pure attestation
//                 sweep. Subtracting this from the durable mode gives
//                 the persistence cost of a sweep.
//   group-commit  the sweep's rows land in one Store.PutBatch and its
//                 audit records in one Log.AppendBatch — a constant
//                 number of fsyncs per sweep regardless of fleet size
//
// A CountingFS underneath reports fsyncs/sweep as a benchmark metric,
// and TestDurableSweepFsyncBudget pins the group-commit sweep to the
// ≤4-fsync budget that BENCH_pr8.json records.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/keylime/audit"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
)

// durableHarness wires a verifier to a journaled state store and audit
// journal over a CountingFS, persisting through the shared Persister.
type durableHarness struct {
	v    *verifier.Verifier
	st   *store.Store
	jl   *audit.JournalLog
	iofs *store.CountingFS
	p    *verifier.Persister // nil in mode off
	// persistNs accumulates time spent in the state-persist phase alone,
	// separating the durability cost from the attestation compute that
	// dominates the sweep.
	persistNs time.Duration
}

func newDurableHarness(tb testing.TB, fleet int, mode string) *durableHarness {
	tb.Helper()
	durable := mode == "group-commit"
	akPub, pol, client := fleetFixture(tb)
	iofs := store.NewCountingFS(store.OS())

	var st *store.Store
	var jl *audit.JournalLog
	vopts := []verifier.Option{
		verifier.WithHTTPClient(client),
		verifier.WithPollConcurrency(64),
	}
	if durable {
		// Auto-compaction is disabled so the measured fsyncs are the append
		// path alone: a compaction's temp-write+rename+dir-sync triple fires
		// on a journal-growth schedule, not per sweep, and would add noise.
		var err error
		st, err = store.Open(tb.TempDir(), store.WithStoreFS(iofs), store.WithAutoCompact(0))
		if err != nil {
			tb.Fatal(err)
		}
		jl, err = audit.OpenJournal(iofs, tb.TempDir()+"/audit.wal",
			store.WithGroupCommit(2*time.Millisecond, 1024))
		if err != nil {
			tb.Fatal(err)
		}
		vopts = append(vopts,
			verifier.WithAuditLog(jl.Log),
			verifier.WithAuditBatch(true),
		)
	}
	v := verifier.New("", vopts...)
	for i := 0; i < fleet; i++ {
		id := fmt.Sprintf("fleet-%05d-4a97-9ef7-75bd81c0f1ee", i)
		if err := v.AddAgentWithAK(id, "http://agent.fleet.internal", akPub, pol); err != nil {
			tb.Fatalf("AddAgentWithAK: %v", err)
		}
	}
	h := &durableHarness{v: v, st: st, jl: jl, iofs: iofs}
	if durable {
		h.p = verifier.NewPersister(v, st, "")
	}
	return h
}

func (h *durableHarness) close() {
	h.v.Close()
	if h.jl != nil {
		_ = h.jl.Close()
	}
	if h.st != nil {
		_ = h.st.Close()
	}
}

// sweep runs one durable sweep: PollAll, then persist the dirty rows.
func (h *durableHarness) sweep(tb testing.TB, ctx context.Context, fleet int) verifier.PollStats {
	st := h.v.PollAll(ctx)
	if st.Attested != fleet || st.Failed != 0 || st.AuditFlushErrs != 0 {
		tb.Fatalf("sweep = %+v", st)
	}
	if h.p == nil {
		return st
	}
	start := time.Now()
	if _, err := h.p.Flush(); err != nil {
		tb.Fatalf("persist: %v", err)
	}
	h.persistNs += time.Since(start)
	return st
}

func BenchmarkPollAllFleetDurable(b *testing.B) {
	for _, fleet := range []int{100, 1000, 10000} {
		for _, mode := range []string{"off", "group-commit"} {
			b.Run(fmt.Sprintf("agents=%d/mode=%s", fleet, mode), func(b *testing.B) {
				h := newDurableHarness(b, fleet, mode)
				defer h.close()
				ctx := context.Background()
				// Warm-up sweep: first rounds fetch and verify the full
				// measurement log; measured sweeps see the steady state.
				h.sweep(b, ctx, fleet)
				b.ReportAllocs()
				syncs0 := h.iofs.Counters().Syncs
				h.persistNs = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.sweep(b, ctx, fleet)
				}
				b.StopTimer()
				syncs := h.iofs.Counters().Syncs - syncs0
				b.ReportMetric(float64(fleet), "agents/sweep")
				b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/sweep")
				b.ReportMetric(float64(h.persistNs.Milliseconds())/float64(b.N), "persist-ms/sweep")
			})
		}
	}
}

// TestDurableSweepFsyncBudget is the fsync-budget gate: a group-commit
// durable sweep over 1000 agents — every row dirty, every round audited
// — must cost at most 4 fsyncs (state batch + audit batch, with slack
// for a group-commit flush split). This is the CI assertion behind the
// ≤4-fsyncs-per-sweep acceptance number in BENCH_pr8.json.
func TestDurableSweepFsyncBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture is expensive")
	}
	const fleet = 1000
	h := newDurableHarness(t, fleet, "group-commit")
	defer h.close()
	ctx := context.Background()
	h.sweep(t, ctx, fleet) // warm-up: log fetch + verify
	const sweeps = 3
	syncs0 := h.iofs.Counters().Syncs
	for i := 0; i < sweeps; i++ {
		st := h.sweep(t, ctx, fleet)
		if st.AuditBatched != fleet {
			t.Fatalf("sweep audited %d of %d rounds through the batch", st.AuditBatched, fleet)
		}
	}
	syncs := h.iofs.Counters().Syncs - syncs0
	if perSweep := float64(syncs) / sweeps; perSweep > 4 {
		t.Fatalf("durable sweep cost %.1f fsyncs (budget 4): group commit is not batching", perSweep)
	}
	// The durable artifacts must actually contain the sweeps' data.
	if h.st.Len() != fleet {
		t.Fatalf("state store holds %d rows, want %d", h.st.Len(), fleet)
	}
	if err := audit.VerifyChain(h.jl.Log.Records()); err != nil {
		t.Fatalf("audit chain after batched sweeps: %v", err)
	}
	if got := h.jl.Log.Len(); got != fleet*(sweeps+1) {
		t.Fatalf("audit log holds %d records, want %d", got, fleet*(sweeps+1))
	}
}
