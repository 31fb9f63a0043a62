package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/keylime/agent"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/verifier"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/vfs"
)

// Tamper workload shape.
const (
	tamperMachines      = 16
	tamperPerMachine    = 16 // agent IDs enrolled against each machine
	tamperPolicyEntries = 1024
	benignPerSecond     = 50.0 // in-policy, never-run binaries executed
	attackPerSecond     = 2.5  // out-of-policy binaries executed
	tamperDrainSweeps   = 8    // sweeps allowed after the timed phase to catch the last attacks
)

// genEvent is one scheduled execution of the open-loop generator.
type genEvent struct {
	due     time.Duration // offset from the start of the timed phase
	machine int
	path    string
	attack  bool
	content []byte // attack binaries are written just before they run
}

// schedule draws the generator's arrivals for the whole timed phase from
// the seed. Each kind runs at its fixed rate, the k-th event at a uniform
// random point of the k-th slot (stratified: the count is exact and the
// events spread evenly over the phase, so runs differ in where events
// fall, not in how many there are). Each event picks a random machine;
// benign runs take that machine's in-policy binaries in order, so every
// one is new to the IMA log.
func schedule(rng *rand.Rand, seconds int, machines, benignCap int) []genEvent {
	var evs []genEvent
	slots := func(rate float64, limit int, mk func(i int) genEvent) {
		for i := 0; i < limit && float64(i) < rate*float64(seconds); i++ {
			ev := mk(i)
			ev.due = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
			evs = append(evs, ev)
		}
	}
	slots(attackPerSecond, math.MaxInt, func(i int) genEvent {
		path := fmt.Sprintf("/usr/bin/implant-%05d", i)
		return genEvent{machine: rng.IntN(machines), attack: true, path: path, content: execContent(rng, path)}
	})
	next := make([]int, machines)
	slots(benignPerSecond, machines*benignCap, func(int) genEvent {
		m := rng.IntN(machines)
		for next[m] >= benignCap { // a machine out of fresh binaries passes its turn on
			m = (m + 1) % machines
		}
		next[m]++
		return genEvent{machine: m, path: appPath(next[m] - 1)}
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

func appPath(i int) string { return fmt.Sprintf("/usr/bin/app-%04d", i) }

// attackRec is one executed attack: which machine, and when its Exec
// returned.
type attackRec struct {
	machine int
	at      time.Time
}

// generator runs a schedule open loop from one goroutine: each event runs
// when due regardless of how the verifier keeps up, and its lateness
// (start minus due) is recorded.
type generator struct {
	ms []*machine.Machine

	mu      sync.Mutex
	attacks map[string]attackRec // path → attack
	lateMS  sample
	benign  int
	err     error
}

func (g *generator) run(ctx context.Context, start time.Time, evs []genEvent) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, ev := range evs {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
		late := time.Since(due)
		err := g.exec(ev)
		g.mu.Lock()
		g.lateMS.add(float64(late) / 1e6)
		if err != nil && g.err == nil {
			g.err = err
		}
		g.mu.Unlock()
	}
}

func (g *generator) exec(ev genEvent) error {
	m := g.ms[ev.machine]
	if ev.attack {
		if err := m.WriteFile(ev.path, ev.content, vfs.ModeExecutable); err != nil {
			return err
		}
	}
	if err := m.Exec(ev.path); err != nil {
		return fmt.Errorf("exec %s: %w", ev.path, err)
	}
	at := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if ev.attack {
		g.attacks[ev.path] = attackRec{machine: ev.machine, at: at}
	} else {
		g.benign++
	}
	return nil
}

func (g *generator) attack(path string) (attackRec, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a, ok := g.attacks[path]
	return a, ok
}

// runTamper exercises the opposite side of the verifier from steady:
// per-machine snapshot policies carried in every persisted row, new IMA
// entries every round, attacks detected with continue-on-failure on,
// revocations sealed into the outbox and delivered. verdict_ms_p50 is
// detect_ms_p50.
func runTamper(cfg *config) (*outcome, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7a3e))
	ca, err := newCA()
	if err != nil {
		return nil, err
	}

	// The simulated world: machines, their binaries and policies. Not
	// timed: this is the fleet, not the verifier.
	type host struct {
		m   *machine.Machine
		ak  []byte
		pol *policy.RuntimePolicy
		srv *server
		ids []string
	}
	hosts := make([]*host, tamperMachines)
	machineOf := map[string]int{}
	var ids []string
	for i := range hosts {
		m, ak, err := newMachine(ca)
		if err != nil {
			return nil, err
		}
		for j := 0; j < tamperPolicyEntries; j++ {
			if err := m.WriteFile(appPath(j), execContent(rng, appPath(j)), vfs.ModeExecutable); err != nil {
				return nil, err
			}
		}
		pol, err := core.SnapshotPolicy(m.FS(), nil)
		if err != nil {
			return nil, err
		}
		srv, err := serve(agent.New(m).Handler(), cfg.p)
		if err != nil {
			return nil, err
		}
		defer srv.close()
		h := &host{m: m, ak: ak, pol: pol, srv: srv,
			ids: agentIDs(rng, fmt.Sprintf("tamper-m%02d", i), tamperPerMachine)}
		for _, id := range h.ids {
			machineOf[id] = i
		}
		ids = append(ids, h.ids...)
		hosts[i] = h
	}
	evs := schedule(rng, cfg.seconds, tamperMachines, tamperPolicyEntries)
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
		attested int
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
		s, err = openStack(stackOpts{dir: dir, workers: cfg.workers, continueOnFailure: true,
			receiver: rcSrv.url, p: cfg.p})
		if err != nil {
			return 0, err
		}
		for _, h := range hosts {
			for _, id := range h.ids {
				if err := s.v.AddAgentWithAK(id, h.srv.url, h.ak, h.pol); err != nil {
					return 0, fmt.Errorf("enrolling %s: %w", id, err)
				}
			}
		}
		st := s.v.PollAll(ctx)
		if _, err := s.persist(nil); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if st.Attested != len(ids) || st.Failed != 0 {
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

	gen := &generator{attacks: map[string]attackRec{}}
	for _, h := range hosts {
		gen.ms = append(gen.ms, h.m)
	}
	var (
		sweepMS, detectMS sample
		detected          = map[[2]string]bool{}
		seenFailures      = map[string]int{}
		falseVerdicts     int
		persistErrs       int
		pendingMax        int
		entries           int
		lastOffset        = map[string]int{}
	)
	// sweep runs one journal-mode sweep and reads the verdicts it made
	// durable: each new failure on an agent is matched to its attack.
	// Only timed sweeps are sweep_ms samples.
	sweep := func(tr *tracer, timed bool) (verifier.PollStats, int) {
		start := time.Now()
		var st verifier.PollStats
		tr.phase(layerVerifier, func() { st = s.v.PollAll(ctx) })
		rows, err := s.persist(tr)
		end := time.Now()
		if err != nil {
			persistErrs++
			fmt.Fprintf(os.Stderr, "perfbench: persist: %v\n", err)
		}
		if timed {
			sweepMS.add(float64(end.Sub(start)) / 1e6)
		}
		newEntries := 0
		for _, row := range rows {
			newEntries += row.NextOffset - lastOffset[row.AgentID]
			lastOffset[row.AgentID] = row.NextOffset
			for _, f := range row.Failures[seenFailures[row.AgentID]:] {
				a, ok := gen.attack(f.Path)
				key := [2]string{row.AgentID, f.Path}
				if !ok || a.machine != machineOf[row.AgentID] || detected[key] {
					falseVerdicts++
					continue
				}
				detected[key] = true
				detectMS.add(float64(end.Sub(a.at)) / 1e6)
			}
			seenFailures[row.AgentID] = len(row.Failures)
		}
		pendingMax = max(pendingMax, s.ob.Len())
		attested += st.Attested
		return st, newEntries
	}
	// Baseline frontiers from the warm-up sweep's rows.
	for _, id := range ids {
		st, err := s.v.Status(id)
		if err != nil {
			return nil, err
		}
		lastOffset[id] = st.VerifiedEntries
	}

	tm := startTimed(cfg)
	genCtx, stopGen := context.WithCancel(ctx)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		gen.run(genCtx, time.Now(), evs)
	}()
	for !tm.done() {
		st, n := sweep(cfg.tr, true)
		tm.add(st)
		entries += n
	}
	stopGen()
	<-genDone
	w := tm.finish()
	heap := heapMB()

	// Drain: sweep until every executed attack is detected on every agent
	// of its machine (the last attacks land after the last timed sweep).
	gen.mu.Lock()
	wantDetect := len(gen.attacks) * tamperPerMachine
	gen.mu.Unlock()
	all := *w
	for i := 0; i < tamperDrainSweeps && len(detected) < wantDetect; i++ {
		st, _ := sweep(nil, false)
		all.add(st)
	}
	drained := all.stats
	// Every revocation delivered and acknowledged.
	delivered := func() bool {
		rc.mu.Lock()
		n := len(rc.first)
		rc.mu.Unlock()
		return n >= len(detected) && s.ob.Len() == 0
	}
	waitFor(30*time.Second, delivered)
	var alertMS sample
	gen.mu.Lock()
	for key := range detected {
		if at, ok := rc.delivered(key[0], key[1]); ok {
			alertMS.add(float64(at.Sub(gen.attacks[key[1]].at)) / 1e6)
		}
	}
	attacks, benign, genErr := len(gen.attacks), gen.benign, gen.err
	late := gen.lateMS
	gen.mu.Unlock()

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
	out.check("generator ran every event", genErr == nil, "%v", genErr)
	out.check("no integrity verdicts on agents not attacked", falseVerdicts == 0,
		"%d verdicts not matching an attack on the agent's machine", falseVerdicts)
	out.check("every attack detected on every agent of its machine", len(detected) == wantDetect,
		"%d of %d (attack, agent) pairs detected; %d attacks, %d benign executions",
		len(detected), wantDetect, attacks, benign)
	rc.mu.Lock()
	out.check("every revocation delivered, outbox drained",
		alertMS.n() == len(detected) && pending == 0 && rc.forged == 0,
		"%d of %d delivered (%d duplicates suppressed), %d forged, %d pending",
		alertMS.n(), len(detected), rc.dups, rc.forged, pending)
	deliver := rc.lagMS
	rc.mu.Unlock()
	out.check("no degraded or errored rounds", failedRounds(drained) == 0 && persistErrs == 0,
		"%d failed rounds, %d persist errors", failedRounds(drained), persistErrs)

	out.attempted = attempted(drained) + wantDetect + len(detected)
	out.failed = failedRounds(drained) + persistErrs + falseVerdicts +
		(wantDetect - len(detected)) + (len(detected) - alertMS.n())
	rate := metric{Value: float64(w.stats.Attested) / w.seconds(), Unit: "1/s", N: w.sweeps}
	out.e2e["setup_s"] = setupS
	out.e2e["rounds_per_s"] = rate
	out.e2e["heap_mb"] = heap
	out.e2e["sweep_ms_p50"] = median(&sweepMS, "ms")
	out.e2e["verdict_ms_p50"] = median(&detectMS, "ms")
	out.named["setup_s"] = setupS
	out.named["rounds_per_s"] = rate
	out.named["heap_mb"] = heap
	out.named["failed_op_ratio"] = metric{Value: float64(out.failed) / float64(max(out.attempted, 1)),
		Unit: "ratio", N: out.attempted}
	out.named["sweep_ms_p50"] = median(&sweepMS, "ms")
	out.named["detect_ms_p50"] = median(&detectMS, "ms")
	out.named["detect_ms_p90"] = pct(&detectMS, 90, "ms")
	out.named["alert_ms_p50"] = median(&alertMS, "ms")
	withTail(out.named, "detect_ms", &detectMS, "ms")
	withTail(out.named, "alert_ms", &alertMS, "ms")
	out.layers["gen.late_ms_p50"] = median(&late, "ms")
	out.layers["gen.late_ms_p95"] = pct(&late, 95, "ms")
	out.layers["gen.late_ms_p99"] = pct(&late, 99, "ms")
	out.layers["webhook.deliver_ms_p50"] = median(&deliver, "ms")
	out.layers["webhook.pending_max"] = metric{Value: float64(pendingMax), Unit: "count", N: w.sweeps}
	out.layers["custody.verify_ms"] = metric{Value: float64(walk) / 1e6, Unit: "ms", N: 1}
	out.layers["custody.records"] = metric{Value: float64(records), Unit: "count", N: 1}
	out.layers["verifier.entries_verified_per_sweep"] = metric{
		Value: float64(entries) / float64(max(w.sweeps, 1)), Unit: "count", N: w.sweeps}
	tm.layerMetrics(out)
	return out, nil
}
