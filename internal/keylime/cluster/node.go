package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/keylime/dsse"
	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/simclock"
)

// Store keys the cluster layer journals through the node's durable store.
// Agent rows ("a/<id>") share the store with them, so one fsync'd journal
// orders cluster metadata against attestation state.
const (
	keyTerm    = "cl/term"    // JSON termRecord
	keyAssign  = "cl/assign"  // JSON Assignment (committed)
	keyPending = "cl/pending" // JSON Assignment (coordinator's in-flight handoff)
	keyGen     = "cl/gen"     // decimal policy-generation watermark

	agentPrefix   = "a/"  // agent rows: a/<agentID> -> AgentState JSON
	replicaPrefix = "r/"  // replicated rows: r/<src>/a/<agentID>
	replSeqPrefix = "rs/" // rs/<src> -> JSON replMark
)

type termRecord struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"voted_for,omitempty"`
}

// replMark is the durable replication cursor a standby keeps per source:
// the source's store epoch and journal seq it has applied through.
type replMark struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// Role is a node's election role.
type Role string

const (
	RoleFollower  Role = "follower"
	RoleCandidate Role = "candidate"
	RoleLeader    Role = "leader"
)

// Config configures a cluster node.
type Config struct {
	// NodeID is this node's identity; must appear in Peers.
	NodeID string
	// Peers is the static cluster membership, including NodeID. Quorum is
	// a majority of Peers regardless of liveness.
	Peers []string
	// Replicas is how many ring successors replicate each node's journal
	// (default 1).
	Replicas int
	// VNodes is the virtual-node count per member (default 64).
	VNodes int
	// HeartbeatEvery is the leader heartbeat / tick cadence (default 1s).
	HeartbeatEvery time.Duration
	// LeaseTimeout is how long without contact a peer counts as dead and
	// a follower waits before standing for election (default 4 heartbeats).
	LeaseTimeout time.Duration

	Verifier  *verifier.Verifier
	Store     *store.Store
	Transport Transport
	Clock     simclock.Clock
	// Keyring, when set, seals outbound replication frames and requires
	// a valid seal on inbound ones (peers trust each other's keys via
	// shared keyring state or AddVerifier). nil runs unsigned.
	Keyring *dsse.Keyring
	// Steps receives a checkpoint at every handoff step boundary; the
	// crash-sweep harness arms it to kill the coordinator mid-handoff.
	Steps *faultinject.StepHook
	Logf  func(format string, args ...any)
}

// Node is one verifier process participating in the cluster: it votes,
// heartbeats, owns a ring range of agents, streams its journal to
// standbys, and (as coordinator) drives handoffs.
type Node struct {
	cfg   Config
	clock simclock.Clock
	logf  func(string, ...any)

	mu        sync.Mutex
	closed    bool
	role      Role
	term      uint64
	votedFor  string
	leader    string
	lastHeard time.Time
	assign    Assignment
	ringC     *Ring       // ring over assign.Members (nil when epoch 0)
	pendingFr *Assignment // freeze received: proposed assignment
	ringP     *Ring       // ring over pendingFr.Members
	frozen    bool
	pending   *Assignment // coordinator: journaled in-flight handoff target
	peerAck   map[string]time.Time
	handoff   bool // coordinator: handoff in flight this process
	repl      map[string]*replCursor
	persist   *verifier.Persister
	// sealRejects counts inbound replication frames rejected for seal
	// verification failures — each one is tampered or misattributed
	// evidence that never touched the store.
	sealRejects int

	genMu sync.Mutex // serializes NextGeneration against heartbeat watermarks
}

type replCursor struct {
	acked uint64
	known bool // we have confirmed the standby's cursor matches ours
}

// NewNode restores cluster metadata and agent rows from the store and
// returns a ready node. It does not start any goroutines; drive it with
// Tick (tests) or Run (production).
func NewNode(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID required")
	}
	inPeers := false
	for _, p := range cfg.Peers {
		if p == cfg.NodeID {
			inPeers = true
		}
	}
	if !inPeers {
		return nil, fmt.Errorf("cluster: NodeID %q not in Peers %v", cfg.NodeID, cfg.Peers)
	}
	if cfg.Verifier == nil || cfg.Store == nil || cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: Verifier, Store and Transport are required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 4 * cfg.HeartbeatEvery
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	n := &Node{
		cfg:     cfg,
		clock:   cfg.Clock,
		logf:    cfg.Logf,
		role:    RoleFollower,
		peerAck: make(map[string]time.Time),
		repl:    make(map[string]*replCursor),
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	if b, ok := cfg.Store.Get(keyTerm); ok {
		var tr termRecord
		if err := json.Unmarshal(b, &tr); err == nil {
			n.term, n.votedFor = tr.Term, tr.VotedFor
		}
	}
	if b, ok := cfg.Store.Get(keyAssign); ok {
		var a Assignment
		if err := json.Unmarshal(b, &a); err == nil {
			n.assign = a
			n.ringC = a.Ring(cfg.VNodes)
		}
	}
	if b, ok := cfg.Store.Get(keyPending); ok {
		var a Assignment
		if err := json.Unmarshal(b, &a); err == nil {
			n.pending = &a
		}
	}
	// Restore this node's agent rows (lenient: a corrupt row skips that
	// agent, it does not take the shard down).
	n.persist = verifier.NewPersister(cfg.Verifier, cfg.Store, agentPrefix)
	skipped, err := n.persist.Restore(true)
	if err != nil {
		return nil, fmt.Errorf("cluster: restoring agent rows: %w", err)
	}
	for _, re := range skipped {
		n.logf("cluster %s: restore skipped row: %v", cfg.NodeID, re.Error())
	}
	n.refreshOwnershipLocked()
	n.lastHeard = n.clock.Now() // grace period before first election
	return n, nil
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.NodeID }

// Close stops the node: ticks and inbound RPCs become no-ops. The store
// and verifier are the caller's to close.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	n.role = RoleFollower
}

func majority(n int) int { return n/2 + 1 }

// electionJitter spreads candidate timeouts deterministically per node so
// simultaneous timeouts don't split votes forever.
func (n *Node) electionJitter() time.Duration {
	h := fnv.New64a()
	_, _ = h.Write([]byte(n.cfg.NodeID))
	frac := float64(h.Sum64()%1024) / 1024
	return time.Duration(frac * float64(n.cfg.LeaseTimeout))
}

// refreshOwnershipLocked installs the verifier ownership predicate for
// the current (committed, proposed) assignment pair. During a handoff the
// predicate is the intersection: agents in motion get no verdicts from
// the losing side until the gaining side commits.
func (n *Node) refreshOwnershipLocked() {
	nid := n.cfg.NodeID
	ringC, ringP := n.ringC, n.ringP
	epoch := n.assign.Epoch
	if epoch == 0 && ringP == nil {
		// Pre-cluster: the node owns whatever it holds (single-node and
		// bootstrap behaviour; the first assignment partitions it).
		n.cfg.Verifier.SetOwnership(nil)
		return
	}
	n.cfg.Verifier.SetOwnership(func(agentID string) bool {
		if epoch != 0 && ringC.Owner(agentID) != nid {
			return false
		}
		if ringP != nil && ringP.Owner(agentID) != nid {
			return false
		}
		return true
	})
}

func (n *Node) persistTermLocked() {
	b, _ := json.Marshal(termRecord{Term: n.term, VotedFor: n.votedFor})
	if err := n.cfg.Store.Put(keyTerm, b); err != nil {
		n.logf("cluster %s: persist term: %v", n.cfg.NodeID, err)
	}
}

// persistAgents flushes dirty verifier rows into the journaled store as
// one batched append — one fsync per sweep, not one per dirty agent;
// replication streams them to standbys on the next tick. Rows that fail
// to persist stay dirty and are retried by the next flush.
func (n *Node) persistAgents() error {
	_, err := n.persist.Flush()
	return err
}

// Persister returns the node's agent-row persister, whose counters back
// the verifier's persist stats in cluster mode.
func (n *Node) Persister() *verifier.Persister { return n.persist }

// Sweep runs one ownership-scoped attestation round and persists the
// results. Call it on the verifier's poll cadence.
func (n *Node) Sweep(ctx context.Context) verifier.PollStats {
	stats := n.cfg.Verifier.PollAll(ctx)
	if err := n.persistAgents(); err != nil {
		n.logf("cluster %s: persist after sweep: %v", n.cfg.NodeID, err)
	}
	return stats
}

// Tick advances the node's cluster duties once: election timeouts,
// leader heartbeats, liveness, handoff driving, and journal replication.
// Production calls it every HeartbeatEvery (see Run); tests call it
// directly on a simulated clock.
func (n *Node) Tick(ctx context.Context) {
	now := n.clock.Now()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	role := n.role
	deadline := n.lastHeard.Add(n.cfg.LeaseTimeout + n.electionJitter())
	n.mu.Unlock()

	switch role {
	case RoleLeader:
		n.leaderTick(ctx, now)
	default:
		if !now.Before(deadline) {
			n.startElection(ctx, now)
		}
	}
	n.replicateTick(ctx)
}

// Run ticks the node on its heartbeat cadence until ctx is cancelled.
func (n *Node) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.clock.After(n.cfg.HeartbeatEvery):
			n.Tick(ctx)
		}
	}
}

func (n *Node) startElection(ctx context.Context, now time.Time) {
	n.mu.Lock()
	n.role = RoleCandidate
	n.term++
	n.votedFor = n.cfg.NodeID
	n.leader = ""
	n.lastHeard = now // restart the timeout for the next attempt
	n.persistTermLocked()
	term := n.term
	assignEpoch := n.assign.Epoch
	n.mu.Unlock()
	n.logf("cluster %s: standing for election, term %d", n.cfg.NodeID, term)

	var (
		wg      sync.WaitGroup
		voteMu  sync.Mutex
		granted = 1 // self
		maxTerm = term
		maxGen  uint64
	)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.NodeID {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var resp VoteResp
			err := call(ctx, n.cfg.Transport, peer, n.cfg.NodeID, MsgVote,
				VoteReq{Term: term, Candidate: n.cfg.NodeID, AssignEpoch: assignEpoch}, &resp)
			if err != nil {
				return
			}
			voteMu.Lock()
			defer voteMu.Unlock()
			if resp.Term > maxTerm {
				maxTerm = resp.Term
			}
			if resp.Granted {
				granted++
			}
			if resp.Gen > maxGen {
				maxGen = resp.Gen
			}
		}(p)
	}
	wg.Wait()
	// Adopt the electorate's generation watermark before taking office:
	// with majority-durable allocation, the max over any majority covers
	// every generation ever issued.
	n.observeGenWatermark(maxGen)

	n.mu.Lock()
	if n.closed || n.role != RoleCandidate || n.term != term {
		n.mu.Unlock()
		return
	}
	if maxTerm > term {
		n.term = maxTerm
		n.votedFor = ""
		n.role = RoleFollower
		n.persistTermLocked()
		n.mu.Unlock()
		return
	}
	if granted < majority(len(n.cfg.Peers)) {
		n.mu.Unlock()
		return
	}
	n.role = RoleLeader
	n.leader = n.cfg.NodeID
	for _, p := range n.cfg.Peers {
		n.peerAck[p] = now // grace: a fresh leader gives every peer one lease
	}
	n.mu.Unlock()
	n.logf("cluster %s: elected coordinator, term %d", n.cfg.NodeID, term)
	n.leaderTick(ctx, now)
}

func (n *Node) leaderTick(ctx context.Context, now time.Time) {
	n.mu.Lock()
	if n.closed || n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	term := n.term
	assign := n.assign
	n.mu.Unlock()
	gen := n.genWatermark()

	var (
		wg      sync.WaitGroup
		ackMu   sync.Mutex
		maxTerm = term
	)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.NodeID {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var resp HeartbeatResp
			err := call(ctx, n.cfg.Transport, peer, n.cfg.NodeID, MsgHeartbeat,
				HeartbeatReq{Term: term, Leader: n.cfg.NodeID, Assign: assign, Gen: gen}, &resp)
			if err != nil {
				return
			}
			ackMu.Lock()
			defer ackMu.Unlock()
			if resp.Term > maxTerm {
				maxTerm = resp.Term
			}
			if resp.Term <= term {
				n.mu.Lock()
				n.peerAck[peer] = now
				n.mu.Unlock()
			}
		}(p)
	}
	wg.Wait()

	n.mu.Lock()
	if n.closed || n.role != RoleLeader || n.term != term {
		n.mu.Unlock()
		return
	}
	if maxTerm > term {
		n.term = maxTerm
		n.votedFor = ""
		n.role = RoleFollower
		n.persistTermLocked()
		n.mu.Unlock()
		n.logf("cluster %s: deposed by higher term %d", n.cfg.NodeID, maxTerm)
		return
	}
	live := []string{n.cfg.NodeID}
	for _, p := range n.cfg.Peers {
		if p == n.cfg.NodeID {
			continue
		}
		if ack, ok := n.peerAck[p]; ok && now.Sub(ack) <= n.cfg.LeaseTimeout {
			live = append(live, p)
		}
	}
	sort.Strings(live)
	if len(live) < majority(len(n.cfg.Peers)) {
		// Lease lost: a minority-side leader must stop coordinating so the
		// majority side can elect and fail our shards over.
		n.role = RoleFollower
		n.leader = ""
		n.lastHeard = now
		n.mu.Unlock()
		n.logf("cluster %s: quorum lost (%d/%d live), stepping down", n.cfg.NodeID, len(live), len(n.cfg.Peers))
		return
	}
	pending := n.pending
	needHandoff := n.assign.Epoch == 0 || !sameMembers(live, n.assign.Members)
	target := Assignment{Epoch: n.assign.Epoch + 1, Members: live}
	busy := n.handoff
	n.mu.Unlock()

	if busy {
		return
	}
	if pending != nil {
		// A crashed (or interrupted) handoff is re-driven to completion
		// before any new membership change is considered: every step is
		// idempotent under its epoch.
		if err := n.runHandoff(ctx, *pending, now); err != nil {
			n.logf("cluster %s: handoff re-drive (epoch %d): %v", n.cfg.NodeID, pending.Epoch, err)
		}
		return
	}
	if needHandoff {
		if err := n.runHandoff(ctx, target, now); err != nil {
			n.logf("cluster %s: handoff to epoch %d %v: %v", n.cfg.NodeID, target.Epoch, target.Members, err)
		}
	}
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// genWatermark reads the durable policy-generation counter.
func (n *Node) genWatermark() uint64 {
	n.genMu.Lock()
	defer n.genMu.Unlock()
	return n.genWatermarkLocked()
}

func (n *Node) genWatermarkLocked() uint64 {
	if b, ok := n.cfg.Store.Get(keyGen); ok {
		if g, err := strconv.ParseUint(string(b), 10, 64); err == nil {
			return g
		}
	}
	return 0
}

// NextGeneration implements rollout.GenerationSource: the coordinator
// allocates cluster-wide policy generations from a journaled counter and
// synchronously replicates the watermark to a majority before returning.
// Any successor coordinator is elected by a majority and learns the max
// watermark from its voters (see VoteResp.Gen), so an issued generation
// is never issued twice — even if this coordinator dies the instant
// after returning.
func (n *Node) NextGeneration() (uint64, error) {
	n.genMu.Lock()
	next := n.genWatermarkLocked() + 1
	if err := n.cfg.Store.Put(keyGen, []byte(strconv.FormatUint(next, 10))); err != nil {
		n.genMu.Unlock()
		return 0, fmt.Errorf("cluster: journal generation %d: %w", next, err)
	}
	n.genMu.Unlock()

	if len(n.cfg.Peers) == 1 {
		return next, nil
	}
	acked := 1 // self
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
	)
	ctx := context.Background()
	for _, p := range n.cfg.Peers {
		if p == n.cfg.NodeID {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if err := call(ctx, n.cfg.Transport, peer, n.cfg.NodeID, MsgGenSync,
				GenSyncReq{Gen: next}, nil); err != nil {
				return
			}
			ackMu.Lock()
			acked++
			ackMu.Unlock()
		}(p)
	}
	wg.Wait()
	if acked < majority(len(n.cfg.Peers)) {
		return 0, fmt.Errorf("cluster: generation %d not durable on a majority (%d/%d acks)", next, acked, len(n.cfg.Peers))
	}
	return next, nil
}

// observeGenWatermark raises the local counter to a leader's watermark.
func (n *Node) observeGenWatermark(g uint64) {
	if g == 0 {
		return
	}
	n.genMu.Lock()
	defer n.genMu.Unlock()
	if g > n.genWatermarkLocked() {
		if err := n.cfg.Store.Put(keyGen, []byte(strconv.FormatUint(g, 10))); err != nil {
			n.logf("cluster %s: persist gen watermark: %v", n.cfg.NodeID, err)
		}
	}
}
