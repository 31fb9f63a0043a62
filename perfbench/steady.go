package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/keylime/agent"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/verifier"
	"repro/internal/vfs"
)

// steadyAgents is the fleet size of the steady workload: agent IDs
// enrolled against one simulated machine with a one-binary policy.
const steadyAgents = 2000

// heapAtSweeps is the timed sweep after which steady reads heap_mb. The
// audit log keeps every record, so the live heap grows with the rounds
// done: read at the end of the phase it would follow the host's speed,
// read after a fixed amount of work it compares like with like.
const heapAtSweeps = 32

// runSteady isolates the steady-state attestation path: clean agents,
// back-to-back sweeps, ~15 of every 16 rounds a session MAC. The agents
// share one enrollment phase, so every 16th sweep is a full-quote herd,
// reported on its own as verdict_ms_p50.
func runSteady(cfg *config) (*outcome, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x57ead))
	ca, err := newCA()
	if err != nil {
		return nil, err
	}
	m, ak, err := newMachine(ca)
	if err != nil {
		return nil, err
	}
	if err := m.WriteFile("/usr/bin/tool", execContent(rng, "tool"), vfs.ModeExecutable); err != nil {
		return nil, err
	}
	if err := m.Exec("/usr/bin/tool"); err != nil {
		return nil, err
	}
	pol, err := core.SnapshotPolicy(m.FS(), nil)
	if err != nil {
		return nil, err
	}
	ids := agentIDs(rng, "steady", steadyAgents)

	agentSrv, err := serve(agent.New(m).Handler(), cfg.p)
	if err != nil {
		return nil, err
	}
	defer agentSrv.close()
	rc := newReceiver(dsse.NewKeyring())
	rcSrv, err := serve(rc, nil)
	if err != nil {
		return nil, err
	}
	defer rcSrv.close()

	out := newOutcome()
	var (
		s        *stack
		dir      string
		setups   int
		attested int // rounds attested by the live stack, warm-up included
	)
	closeStack := func() {
		if s != nil {
			s.close()
			s = nil
		}
	}
	defer closeStack()
	setup := func() (time.Duration, error) {
		setups++
		dir = filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", setups))
		start := time.Now()
		var err error
		s, err = openStack(stackOpts{dir: dir, workers: cfg.workers, receiver: rcSrv.url, p: cfg.p})
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			if err := s.v.AddAgentWithAK(id, agentSrv.url, ak, pol); err != nil {
				return 0, fmt.Errorf("enrolling %s: %w", id, err)
			}
		}
		st := s.v.PollAll(ctx)
		if _, err := s.persist(nil); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if st.Attested != steadyAgents || st.Failed != 0 {
			return 0, fmt.Errorf("warm-up sweep: %+v", st)
		}
		attested = st.Attested
		trust(rc, s.kr)
		return d, nil
	}
	teardown := func() {
		closeStack()
		_ = os.RemoveAll(dir)
	}
	setupS, err := timeSetups(setup, teardown)
	if err != nil {
		return nil, err
	}

	var sessMS, herdMS sample
	var heap metric
	persistErrs := 0
	tm := startTimed(cfg)
	for !tm.done() {
		start := time.Now()
		var st verifier.PollStats
		cfg.tr.phase(layerVerifier, func() { st = s.v.PollAll(ctx) })
		if _, err := s.persist(cfg.tr); err != nil {
			persistErrs++
			fmt.Fprintf(os.Stderr, "perfbench: persist: %v\n", err)
		}
		ms := float64(time.Since(start)) / 1e6
		if st.FullQuoteRounds > st.SessionRounds {
			herdMS.add(ms)
		} else {
			sessMS.add(ms)
		}
		tm.add(st)
		attested += st.Attested
		if tm.win.sweeps == heapAtSweeps {
			tm.pause(func() { heap = heapMB() })
		}
	}
	w := tm.finish()
	heapSweeps := min(w.sweeps, heapAtSweeps)
	if w.sweeps < heapAtSweeps { // a phase too short to get there
		heap = heapMB()
	}

	pending := s.ob.Len()
	keyringPath := filepath.Join(dir, keyringFile)
	closeStack()
	var records int
	var walk time.Duration
	tm.custody(func() { records, walk = custodyWalk(out, "verifier", dir, keyringPath) })
	out.check("audit records equal attested rounds", records == attested,
		"%d records, %d attested rounds", records, attested)
	if rows, err := storeRows(filepath.Join(dir, stateDir)); err != nil {
		out.check("one state row per agent", false, "loading store: %v", err)
	} else {
		rowsCheck(out, rows, "", ids)
	}
	out.check("no integrity verdicts on clean agents", w.stats.Failed == 0, "%d failed verdicts", w.stats.Failed)
	out.check("no degraded or errored rounds", failedRounds(w.stats) == 0 && persistErrs == 0,
		"%d failed rounds, %d persist errors", failedRounds(w.stats), persistErrs)
	rc.mu.Lock()
	out.check("no revocations issued", len(rc.seen) == 0 && rc.forged == 0 && pending == 0,
		"%d delivered, %d forged, %d pending", len(rc.seen), rc.forged, pending)
	rc.mu.Unlock()

	out.attempted = attempted(w.stats)
	out.failed = w.stats.Failed + failedRounds(w.stats) + persistErrs
	rate := metric{Value: float64(w.stats.Attested) / w.seconds(), Unit: "1/s", N: w.sweeps}
	out.e2e["setup_s"] = setupS
	out.e2e["rounds_per_s"] = rate
	out.e2e["heap_mb"] = heap
	out.e2e["sweep_ms_p50"] = median(&sessMS, "ms")
	out.e2e["verdict_ms_p50"] = median(&herdMS, "ms")
	out.named["setup_s"] = setupS
	out.named["rounds_per_s"] = rate
	out.named["heap_mb"] = heap
	out.named["heap_after_sweeps"] = metric{Value: float64(heapSweeps), Unit: "count", N: 1}
	out.named["failed_op_ratio"] = metric{Value: float64(out.failed) / float64(max(out.attempted, 1)),
		Unit: "ratio", N: out.attempted}
	out.named["sweep_ms_p50"] = median(&sessMS, "ms")
	out.named["sweep_ms_p90"] = pct(&sessMS, 90, "ms")
	out.named["full_sweep_ms_p50"] = median(&herdMS, "ms")
	withTail(out.named, "sweep_ms", &sessMS, "ms")
	out.layers["custody.verify_ms"] = metric{Value: float64(walk) / 1e6, Unit: "ms", N: 1}
	out.layers["custody.records"] = metric{Value: float64(records), Unit: "count", N: 1}
	out.layers["webhook.pending_max"] = metric{Value: float64(pending), Unit: "count", N: 1}
	tm.layerMetrics(out)
	return out, nil
}

// trust adds a keyring's public keys to the receiver's verify-only ring.
func trust(rc *receiver, kr *dsse.Keyring) {
	for _, pub := range kr.PublicKeys() {
		rc.kr.AddVerifier(pub)
	}
}
