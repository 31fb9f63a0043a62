package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keylime/agent"
	"repro/internal/keylime/cluster"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/verifier"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/vfs"
)

// Failover workload shape.
const (
	failoverAgents  = 1500
	steadyPerCycle  = 2 // steady sweeps before each crash
	heartbeat       = time.Second
	maxConvergeTick = 200
	maxCoverSweeps  = 6
	// heapAtCycles is the cycle after which failover reads heap_mb: one
	// whole rotation, every node live again. Each node's audit log keeps
	// every record, so the live heap grows with the rounds done; read
	// after a fixed amount of work, not at the end of the phase, it does
	// not follow the host's speed.
	heapAtCycles = 3
)

var clusterPeers = []string{"v1", "v2", "v3"}

// cnode is one cluster member: a shipped verifier stack plus its node.
type cnode struct {
	dir      string
	s        *stack
	n        *cluster.Node
	attested int // rounds attested by every incarnation (audit records)
}

// fleet is a three-node cluster in one process over a MemTransport, on a
// simulated clock the benchmark advances: lease expiry costs no wall
// time, so the timings measure program work.
type fleet struct {
	cfg      *config
	dir      string
	clk      *simclock.Simulated
	faults   *faultinject.PeerFaults
	mt       *cluster.MemTransport
	tr       cluster.Transport
	kr       *dsse.Keyring
	receiver string
	nodes    map[string]*cnode // every member, live or not
	live     map[string]bool
	logErrs  atomic.Int64
	// tracedTicks counts ticks taken while the tracer was on.
	tracedTicks int
}

func newFleet(cfg *config, dir, receiver string) (*fleet, error) {
	f := &fleet{
		cfg:      cfg,
		dir:      dir,
		clk:      simclock.NewSimulated(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)),
		faults:   faultinject.NewPeerFaults(),
		receiver: receiver,
		nodes:    map[string]*cnode{},
		live:     map[string]bool{},
	}
	f.mt = cluster.NewMemTransport(f.faults)
	f.tr = f.mt
	if cfg.p != nil {
		f.tr = traceTransport{base: f.mt, p: cfg.p}
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	kr, err := openKeyring(fsFor(cfg.p), filepath.Join(dir, keyringFile))
	if err != nil {
		return nil, err
	}
	f.kr = kr
	for _, id := range clusterPeers {
		f.nodes[id] = &cnode{dir: filepath.Join(dir, id)}
		if _, _, err := f.start(id); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// logf counts every cluster log line that reports a failure: one that
// carries an error value, or a row skipped on restore or install (those
// pass the error as text). Everything else it logs is protocol chatter.
func (f *fleet) logf(format string, args ...any) {
	failed := strings.Contains(format, "skip")
	for _, a := range args {
		if _, ok := a.(error); ok {
			failed = true
		}
	}
	if failed {
		f.logErrs.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// start boots (or reboots) a node from its directory and returns how
// long the state store and NewNode took.
func (f *fleet) start(id string) (storeOpen, newNode time.Duration, err error) {
	cn := f.nodes[id]
	s, err := openStack(stackOpts{dir: cn.dir, workers: f.cfg.workers, keyring: f.kr,
		receiver: f.receiver, p: f.cfg.p})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	n, err := cluster.NewNode(cluster.Config{
		NodeID:         id,
		Peers:          clusterPeers,
		Replicas:       1,
		HeartbeatEvery: heartbeat,
		Verifier:       s.v,
		Store:          s.st,
		Transport:      f.tr,
		Clock:          f.clk,
		Keyring:        f.kr,
		Logf:           f.logf,
	})
	newNode = time.Since(start)
	if err != nil {
		s.close()
		return 0, 0, fmt.Errorf("starting node %s: %w", id, err)
	}
	cn.s, cn.n = s, n
	f.mt.Register(id, n.Handle)
	f.live[id] = true
	return s.openStore, newNode, nil
}

// kill crashes a node: its traffic drops both ways, it stops ticking,
// and its journals are closed without a final persist.
func (f *fleet) kill(id string) {
	cn := f.nodes[id]
	f.faults.KillPeer(id)
	cn.n.Close()
	cn.s.close()
	cn.s, cn.n = nil, nil
	delete(f.live, id)
}

func (f *fleet) revive(id string) (time.Duration, time.Duration, error) {
	f.faults.Revive(id)
	return f.start(id)
}

func (f *fleet) close() {
	for id := range f.live {
		f.kill(id)
	}
	if f.kr != nil {
		_ = f.kr.Close()
	}
}

func (f *fleet) liveIDs() []string {
	ids := make([]string, 0, len(f.live))
	for id := range f.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// tick advances the clock one heartbeat and ticks every live node.
func (f *fleet) tick(ctx context.Context) {
	f.clk.Advance(heartbeat)
	if f.cfg.tr.enabled() {
		f.tracedTicks++
	}
	for _, id := range f.liveIDs() {
		n := f.nodes[id].n
		d := f.cfg.tr.phase(layerCluster, func() { n.Tick(ctx) })
		if f.cfg.tr.enabled() {
			f.cfg.p.observe(&f.cfg.p.tickMS, float64(d)/1e6)
		}
	}
}

// converged reports one leader whose committed assignment is exactly the
// live set, agreed by every live node, with no handoff pending.
func (f *fleet) converged() bool {
	live := f.liveIDs()
	var lead *cnode
	for _, id := range live {
		if st := f.nodes[id].n.Status(); st.Role == cluster.RoleLeader {
			if lead != nil {
				return false
			}
			lead = f.nodes[id]
		}
	}
	if lead == nil {
		return false
	}
	ls := lead.n.Status()
	if ls.PendingEpoch > ls.Assign.Epoch || !sameSet(ls.Assign.Members, live) {
		return false
	}
	for _, id := range live {
		ns := f.nodes[id].n.Status()
		if ns.Assign.Epoch != ls.Assign.Epoch || ns.PendingEpoch > ns.Assign.Epoch {
			return false
		}
	}
	return true
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	sort.Strings(as)
	for i := range as {
		if as[i] != b[i] {
			return false
		}
	}
	return true
}

// converge ticks until converged and returns the ticks it took.
func (f *fleet) converge(ctx context.Context) (int, error) {
	for i := 1; i <= maxConvergeTick; i++ {
		f.tick(ctx)
		if f.converged() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cluster did not converge on %v in %d ticks", f.liveIDs(), maxConvergeTick)
}

func (f *fleet) leader() *cnode {
	for _, id := range f.liveIDs() {
		if f.nodes[id].n.Status().Role == cluster.RoleLeader {
			return f.nodes[id]
		}
	}
	return nil
}

// sweep runs the shipped cluster.Node.Sweep on every live node.
func (f *fleet) sweep(ctx context.Context) verifier.PollStats {
	var w window
	for _, id := range f.liveIDs() {
		cn := f.nodes[id]
		var st verifier.PollStats
		f.cfg.tr.phase(layerVerifier, func() { st = cn.n.Sweep(ctx) })
		cn.attested += st.Attested
		w.add(st)
	}
	return w.stats
}

// owner returns the live node that owns and holds id, or nil.
func (f *fleet) owner(id string) *cnode {
	for _, nid := range f.liveIDs() {
		cn := f.nodes[nid]
		if cn.n.OwnerOf(id) == nid {
			return cn
		}
	}
	return nil
}

// counts reads each agent's attestation count on its owner; -1 when no
// live owner holds it.
func (f *fleet) counts(ids []string) map[string]int {
	out := make(map[string]int, len(ids))
	for _, id := range ids {
		out[id] = -1
		if cn := f.owner(id); cn != nil {
			if st, err := cn.s.v.Status(id); err == nil {
				out[id] = st.Attestations
			}
		}
	}
	return out
}

// sweepUntilCovered sweeps (ticking between sweeps) until every agent in
// ids has a newer verdict on its owner than when called, and returns when
// the covering sweep ended. Node.Sweep persisted the verdicts before it
// returned.
func (f *fleet) sweepUntilCovered(ctx context.Context, tm *timed, ids []string) (time.Time, error) {
	base := f.counts(ids)
	for i := 0; i <= maxCoverSweeps; i++ {
		if i > 0 {
			f.tick(ctx)
		}
		tm.add(f.sweep(ctx))
		end := time.Now()
		now := f.counts(ids)
		covered := true
		for _, id := range ids {
			if base[id] < 0 || now[id] <= base[id] {
				covered = false
				break
			}
		}
		if covered {
			return end, nil
		}
	}
	return time.Time{}, fmt.Errorf("%d agents not re-attested after %d sweeps", len(ids), maxCoverSweeps+1)
}

// runFailover repeats crash → failover → revive → rejoin on a three-node
// cluster, rotating the crashed node. It is the only workload that reads
// journals back and the only one with forced-full handoff rounds.
// verdict_ms_p50 is failover_ms_p50.
func runFailover(cfg *config) (*outcome, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(cfg.seed, 0xfa11))
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
	ids := agentIDs(rng, "failover", failoverAgents)
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
		f      *fleet
		setups int
	)
	closeFleet := func() {
		if f != nil {
			f.close()
			_ = os.RemoveAll(f.dir)
			f = nil
		}
	}
	defer closeFleet()
	setup := func() (time.Duration, error) {
		setups++
		start := time.Now()
		var err error
		f, err = newFleet(cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", setups)), rcSrv.url)
		if err != nil {
			return 0, err
		}
		if _, err := f.converge(ctx); err != nil {
			return 0, err
		}
		if err := enroll(ctx, f, ids, agentSrv.url, ak, pol); err != nil {
			return 0, err
		}
		st := f.sweep(ctx)
		f.tick(ctx) // replicate the first verdicts to the standbys
		d := time.Since(start)
		if st.Attested != failoverAgents || st.Failed != 0 {
			return 0, fmt.Errorf("warm-up sweep: %+v", st)
		}
		trust(rc, f.kr)
		return d, nil
	}
	setupS, err := timeSetups(setup, closeFleet)
	if err != nil {
		return nil, err
	}

	var (
		sweepMS, failoverMS, rejoinMS, recoverMS, newNodeMS, convergeTicks sample
		cycles                                                             int
		heap                                                               metric
		cycleFailover, cycleRejoin                                         []float64
	)
	tm := startTimed(cfg)
	for cycle := 0; !tm.done(); cycle++ {
		// 1. Steady sweeps, each followed by a tick.
		for i := 0; i < steadyPerCycle; i++ {
			start := time.Now()
			st := f.sweep(ctx)
			sweepMS.add(float64(time.Since(start)) / 1e6)
			tm.add(st)
			f.tick(ctx)
		}
		if tm.done() {
			break
		}
		// 2. Crash one node, rotating.
		victim := clusterPeers[cycle%len(clusterPeers)]
		var shard []string
		for _, id := range ids {
			if f.nodes[victim].n.OwnerOf(id) == victim {
				shard = append(shard, id)
			}
		}
		killAt := time.Now()
		f.kill(victim)
		// 3. Converge and sweep until the dead shard is attested again.
		ticks, err := f.converge(ctx)
		if err != nil {
			return nil, err
		}
		convergeTicks.add(float64(ticks))
		failedOver, err := f.sweepUntilCovered(ctx, tm, shard)
		if err != nil {
			return nil, fmt.Errorf("failing over %s: %w", victim, err)
		}
		// 4. Revive it from its directory.
		reviveAt := time.Now()
		storeOpen, newNode, err := f.revive(victim)
		if err != nil {
			return nil, err
		}
		recoverMS.add(float64(storeOpen) / 1e6)
		newNodeMS.add(float64(newNode) / 1e6)
		// 5. Converge and sweep until it owns its shard again, swept.
		if ticks, err = f.converge(ctx); err != nil {
			return nil, err
		}
		convergeTicks.add(float64(ticks))
		var back []string
		for _, id := range ids {
			if f.nodes[victim].n.OwnerOf(id) == victim {
				back = append(back, id)
			}
		}
		rejoined, err := f.sweepUntilCovered(ctx, tm, back)
		if err != nil {
			return nil, fmt.Errorf("rejoining %s: %w", victim, err)
		}
		cycleFailover = append(cycleFailover, float64(failedOver.Sub(killAt))/1e6)
		cycleRejoin = append(cycleRejoin, float64(rejoined.Sub(reviveAt))/1e6)
		f.tick(ctx)
		cycles++
		if cycles == heapAtCycles {
			tm.pause(func() { heap = heapMB() })
		}
	}
	// Report failover and rejoin over whole rotations only, so every node
	// is the victim equally often whatever the run's length.
	for i := 0; i < cycles/len(clusterPeers)*len(clusterPeers); i++ {
		failoverMS.add(cycleFailover[i])
		rejoinMS.add(cycleRejoin[i])
	}
	w := tm.finish()
	if cycles < heapAtCycles { // a phase too short to get there
		heap = heapMB()
	}

	// Ownership, rows and seals on the live cluster.
	owned := 0
	multi := 0
	for _, id := range ids {
		holders := 0
		for _, nid := range f.liveIDs() {
			cn := f.nodes[nid]
			if cn.n.OwnerOf(id) != nid {
				continue
			}
			if _, err := cn.s.v.Status(id); err == nil {
				holders++
			}
		}
		if holders == 1 {
			owned++
		} else if holders > 1 {
			multi++
		}
	}
	out.check("every agent owned by exactly one live node", owned == len(ids),
		"%d of %d agents owned once, %d owned more than once", owned, len(ids), multi)
	rows := map[string][]byte{}
	dupRows := 0
	sealRejects := 0
	pending := 0
	for _, nid := range f.liveIDs() {
		cn := f.nodes[nid]
		for k, v := range cn.s.st.All() {
			if !strings.HasPrefix(k, "a/") {
				continue
			}
			if _, dup := rows[k]; dup {
				dupRows++
			}
			rows[k] = v
		}
		sealRejects += cn.n.Status().SealRejects
		pending += cn.s.ob.Len()
	}
	rowsCheck(out, rows, "a/", ids)
	out.check("no agent row on two nodes", dupRows == 0, "%d duplicated rows", dupRows)
	out.check("no replication seal rejected", sealRejects == 0, "%d seal rejects", sealRejects)

	// Close every node so the journals are final, then walk them.
	type nodeDir struct {
		id, dir  string
		attested int
	}
	var dirs []nodeDir
	for _, id := range clusterPeers {
		cn := f.nodes[id]
		dirs = append(dirs, nodeDir{id: id, dir: cn.dir, attested: cn.attested})
	}
	keyringPath := filepath.Join(f.dir, keyringFile)
	for _, id := range f.liveIDs() {
		f.kill(id)
	}
	var records int
	var walk time.Duration
	for _, nd := range dirs {
		var n int
		var d time.Duration
		tm.custody(func() { n, d = custodyWalk(out, nd.id, nd.dir, keyringPath) })
		out.check("audit records equal attested rounds on "+nd.id, n == nd.attested,
			"%d records, %d attested rounds", n, nd.attested)
		records += n
		walk += d
	}
	out.check("no integrity verdicts", w.stats.Failed == 0, "%d failed verdicts", w.stats.Failed)
	logErrs := int(f.logErrs.Load())
	out.check("no degraded or errored rounds", failedRounds(w.stats) == 0 && logErrs == 0,
		"%d failed rounds, %d cluster errors logged", failedRounds(w.stats), logErrs)
	rc.mu.Lock()
	out.check("no revocations issued", len(rc.seen) == 0 && rc.forged == 0 && pending == 0,
		"%d delivered, %d forged, %d pending", len(rc.seen), rc.forged, pending)
	rc.mu.Unlock()
	out.check("a whole rotation of failovers completed", cycles >= len(clusterPeers), "%d cycles", cycles)

	out.attempted = attempted(w.stats)
	out.failed = w.stats.Failed + failedRounds(w.stats) + logErrs
	rate := metric{Value: float64(w.stats.Attested) / w.seconds(), Unit: "1/s", N: w.sweeps}
	out.e2e["setup_s"] = setupS
	out.e2e["rounds_per_s"] = rate
	out.e2e["heap_mb"] = heap
	out.e2e["sweep_ms_p50"] = median(&sweepMS, "ms")
	out.e2e["verdict_ms_p50"] = median(&failoverMS, "ms")
	out.named["setup_s"] = setupS
	out.named["rounds_per_s"] = rate
	out.named["heap_mb"] = heap
	out.named["failed_op_ratio"] = metric{Value: float64(out.failed) / float64(max(out.attempted, 1)),
		Unit: "ratio", N: out.attempted}
	out.named["sweep_ms_p50"] = median(&sweepMS, "ms")
	out.named["failover_ms_p50"] = median(&failoverMS, "ms")
	out.named["rejoin_ms_p50"] = median(&rejoinMS, "ms")
	withTail(out.named, "sweep_ms", &sweepMS, "ms")
	out.named["cycles"] = metric{Value: float64(cycles), Unit: "count", N: cycles}
	out.named["heap_after_cycles"] = metric{Value: float64(min(cycles, heapAtCycles)), Unit: "count", N: 1}
	out.layers["store.recover_ms"] = median(&recoverMS, "ms")
	out.layers["cluster.newnode_ms"] = median(&newNodeMS, "ms")
	out.layers["cluster.converge_ticks"] = median(&convergeTicks, "count")
	out.layers["cluster.seal_rejects"] = metric{Value: float64(sealRejects), Unit: "count", N: len(clusterPeers)}
	out.layers["webhook.pending_max"] = metric{Value: float64(pending), Unit: "count", N: 1}
	out.layers["custody.verify_ms"] = metric{Value: float64(walk) / 1e6, Unit: "ms", N: len(dirs)}
	out.layers["custody.records"] = metric{Value: float64(records), Unit: "count", N: len(dirs)}
	if cfg.trace {
		ticks := float64(max(f.tracedTicks, 1))
		out.layers["cluster.repl_bytes_per_tick"] = metric{Value: float64(cfg.p.replBytes.Load()) / ticks,
			Unit: "B", N: f.tracedTicks}
	}
	tm.layerMetrics(out)
	return out, nil
}

// enroll adds every agent through the cluster's fleet proxy, which routes
// each enrollment to its ring owner.
func enroll(ctx context.Context, f *fleet, ids []string, url string, ak []byte, pol *policy.RuntimePolicy) error {
	lead := f.leader()
	if lead == nil {
		return fmt.Errorf("no coordinator to enroll through")
	}
	proxy := lead.n.Fleet(ctx)
	for _, id := range ids {
		if err := proxy.AddAgentWithAK(id, url, ak, pol); err != nil {
			return fmt.Errorf("enrolling %s: %w", id, err)
		}
	}
	return nil
}
