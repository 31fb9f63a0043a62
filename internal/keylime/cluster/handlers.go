package cluster

// Inbound RPC handlers. Every handler validates the sender's term and
// the assignment epoch before acting, so messages from a deposed
// coordinator or a completed handoff are rejected rather than replayed.

import (
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
)

// Handle processes one cluster RPC. Register it with the transport.
func (n *Node) Handle(req Request) Reply {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return errReply("node %s closed", n.cfg.NodeID)
	}
	switch req.Type {
	case MsgVote:
		return n.handleVote(req)
	case MsgHeartbeat:
		return n.handleHeartbeat(req)
	case MsgReplicate:
		return n.handleReplicate(req)
	case MsgFetchReplica:
		return n.handleFetchReplica(req)
	case MsgFreeze:
		return n.handleFreeze(req)
	case MsgFlush:
		return n.handleFlush(req)
	case MsgInstall:
		return n.handleInstall(req)
	case MsgCommit:
		return n.handleCommit(req)
	case MsgResume:
		return n.handleResume(req)
	case MsgFleet:
		return n.handleFleet(req)
	case MsgGenSync:
		var body GenSyncReq
		if err := decodeBody(req, &body); err != nil {
			return errReply("%v", err)
		}
		n.observeGenWatermark(body.Gen)
		return okReply(nil)
	case MsgStatus:
		return okReply(n.Status())
	default:
		return errReply("unknown message type %q", req.Type)
	}
}

func (n *Node) handleVote(req Request) Reply {
	var body VoteReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if body.Term > n.term {
		n.term = body.Term
		n.votedFor = ""
		n.role = RoleFollower
		n.leader = ""
		n.persistTermLocked()
	}
	granted := false
	if body.Term == n.term && body.AssignEpoch >= n.assign.Epoch &&
		(n.votedFor == "" || n.votedFor == body.Candidate) {
		granted = true
		if n.votedFor != body.Candidate {
			n.votedFor = body.Candidate
			n.persistTermLocked()
		}
		// Granting resets the election timer: don't stand against a
		// candidate we just endorsed.
		n.lastHeard = n.clock.Now()
	}
	// Lock order n.mu -> genMu is safe: nothing acquires them in reverse.
	return okReply(VoteResp{Term: n.term, Granted: granted, Gen: n.genWatermark()})
}

func (n *Node) handleHeartbeat(req Request) Reply {
	var body HeartbeatReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	if body.Term < n.term {
		term := n.term
		n.mu.Unlock()
		return okReply(HeartbeatResp{Term: term})
	}
	if body.Term > n.term {
		n.term = body.Term
		n.votedFor = ""
		n.persistTermLocked()
	}
	if n.role != RoleFollower {
		n.role = RoleFollower
	}
	n.leader = body.Leader
	n.lastHeard = n.clock.Now()
	var prune bool
	if body.Assign.Epoch > n.assign.Epoch {
		// Catch-up path for a node that missed a handoff (dead or
		// partitioned while the cluster moved on): adopt the committed
		// assignment and drop rows that were failed over elsewhere.
		n.adoptAssignLocked(body.Assign)
		prune = true
	}
	term := n.term
	n.mu.Unlock()
	n.observeGenWatermark(body.Gen)
	if prune {
		n.pruneUnowned()
	}
	return okReply(HeartbeatResp{Term: term})
}

// adoptAssignLocked commits an assignment locally (mu held).
func (n *Node) adoptAssignLocked(a Assignment) {
	n.assign = a
	n.ringC = a.Ring(n.cfg.VNodes)
	if n.pendingFr != nil && n.pendingFr.Epoch <= a.Epoch {
		n.pendingFr = nil
		n.ringP = nil
		n.frozen = false
	}
	b, _ := json.Marshal(a)
	if err := n.cfg.Store.Put(keyAssign, b); err != nil {
		n.logf("cluster %s: persist assignment: %v", n.cfg.NodeID, err)
	}
	n.refreshOwnershipLocked()
}

// pruneUnowned removes agents the committed ring places elsewhere. Their
// rows were installed on the gaining side before the assignment
// committed, so dropping the local copy loses nothing.
func (n *Node) pruneUnowned() {
	n.mu.Lock()
	ring := n.ringC
	nid := n.cfg.NodeID
	n.mu.Unlock()
	if ring == nil {
		return
	}
	var gone []string
	for _, id := range n.cfg.Verifier.AgentIDs() {
		if ring.Owner(id) != nid {
			gone = append(gone, id)
		}
	}
	if len(gone) == 0 {
		return
	}
	n.cfg.Verifier.RemoveAgents(gone)
	if err := n.persistAgents(); err != nil {
		n.logf("cluster %s: persist after prune: %v", n.cfg.NodeID, err)
	}
}

// checkHandoffTermLocked validates a handoff RPC's term, adopting a
// higher one. Returns false when the sender is stale.
func (n *Node) checkHandoffTermLocked(term uint64) bool {
	if term < n.term {
		return false
	}
	if term > n.term {
		n.term = term
		n.votedFor = ""
		if n.role != RoleFollower && n.leader != n.cfg.NodeID {
			n.role = RoleFollower
		}
		n.persistTermLocked()
	}
	n.lastHeard = n.clock.Now()
	return true
}

func (n *Node) handleFreeze(req Request) Reply {
	var body FreezeReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.checkHandoffTermLocked(body.Term) {
		return errReply("stale term %d (at %d)", body.Term, n.term)
	}
	if body.Assign.Epoch <= n.assign.Epoch {
		if body.Assign.Epoch == n.assign.Epoch {
			return okReply(nil) // already committed this epoch: freeze is moot
		}
		return errReply("stale assignment epoch %d (committed %d)", body.Assign.Epoch, n.assign.Epoch)
	}
	a := body.Assign
	n.pendingFr = &a
	n.ringP = a.Ring(n.cfg.VNodes)
	n.frozen = true
	n.refreshOwnershipLocked()
	return okReply(nil)
}

func (n *Node) handleFlush(req Request) Reply {
	var body FlushReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	if !n.checkHandoffTermLocked(body.Term) {
		n.mu.Unlock()
		return errReply("stale term %d (at %d)", body.Term, n.term)
	}
	if body.Assign.Epoch <= n.assign.Epoch {
		epoch := n.assign.Epoch
		n.mu.Unlock()
		if body.Assign.Epoch == epoch {
			return okReply(FlushResp{}) // committed already; nothing left to move
		}
		return errReply("stale assignment epoch %d (committed %d)", body.Assign.Epoch, epoch)
	}
	// A flush implies the freeze (idempotent): a re-driven handoff may
	// reach us here first.
	a := body.Assign
	n.pendingFr = &a
	n.ringP = a.Ring(n.cfg.VNodes)
	n.frozen = true
	n.refreshOwnershipLocked()
	ringT := n.ringP
	nid := n.cfg.NodeID
	n.mu.Unlock()

	// Flush the journal first so replicas and the local store agree with
	// what we export, then export every row the new ring takes away.
	if err := n.persistAgents(); err != nil {
		return errReply("flush journal: %v", err)
	}
	rows, err := n.cfg.Verifier.ExportWhere(func(id string) bool {
		return ringT.Owner(id) != nid
	})
	if err != nil {
		return errReply("export moving rows: %v", err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].AgentID < rows[j].AgentID })
	return okReply(FlushResp{Rows: rows})
}

func (n *Node) handleInstall(req Request) Reply {
	var body InstallReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	if !n.checkHandoffTermLocked(body.Term) {
		n.mu.Unlock()
		return errReply("stale term %d (at %d)", body.Term, n.term)
	}
	if body.Epoch < n.assign.Epoch {
		epoch := n.assign.Epoch
		n.mu.Unlock()
		return errReply("stale install epoch %d (committed %d)", body.Epoch, epoch)
	}
	n.mu.Unlock()
	// replace=true + lenient import: a re-driven handoff overwrites the
	// rows it already installed, and one corrupt row skips one agent
	// instead of failing the whole failover.
	for _, re := range n.cfg.Verifier.ImportAgents(body.Rows, true) {
		n.logf("cluster %s: install skipped row: %v", n.cfg.NodeID, re.Error())
	}
	if err := n.persistAgents(); err != nil {
		return errReply("persist installed rows: %v", err)
	}
	return okReply(nil)
}

func (n *Node) handleCommit(req Request) Reply {
	var body CommitReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	if !n.checkHandoffTermLocked(body.Term) {
		n.mu.Unlock()
		return errReply("stale term %d (at %d)", body.Term, n.term)
	}
	if body.Assign.Epoch < n.assign.Epoch {
		epoch := n.assign.Epoch
		n.mu.Unlock()
		return errReply("stale commit epoch %d (committed %d)", body.Assign.Epoch, epoch)
	}
	n.adoptAssignLocked(body.Assign)
	n.mu.Unlock()
	n.pruneUnowned()
	return okReply(nil)
}

func (n *Node) handleResume(req Request) Reply {
	var body ResumeReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.checkHandoffTermLocked(body.Term) {
		return errReply("stale term %d (at %d)", body.Term, n.term)
	}
	if body.Epoch < n.assign.Epoch {
		return errReply("stale resume epoch %d (committed %d)", body.Epoch, n.assign.Epoch)
	}
	n.frozen = false
	if n.pendingFr != nil && n.pendingFr.Epoch <= n.assign.Epoch {
		n.pendingFr = nil
		n.ringP = nil
	}
	n.refreshOwnershipLocked()
	return okReply(nil)
}

func (n *Node) handleReplicate(req Request) Reply {
	var body ReplicateReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	src := req.From
	if src == "" {
		return errReply("replicate without source")
	}
	// Verify the frame seal before a single row is applied. A rejected
	// frame is a hard error back to the sender — the standby's replica
	// must never absorb evidence it cannot authenticate, because that
	// replica is what failover restores from.
	if err := n.verifyReplicate(src, &body); err != nil {
		n.mu.Lock()
		n.sealRejects++
		n.mu.Unlock()
		n.logf("cluster %s: REJECTED replication frame from %s: %v", n.cfg.NodeID, src, err)
		return errReply("replication seal: %v", err)
	}
	st := n.cfg.Store
	markKey := replSeqPrefix + src
	var mark replMark
	have := false
	if b, ok := st.Get(markKey); ok && json.Unmarshal(b, &mark) == nil {
		have = true
	}
	if body.IsSnap {
		// Wholesale replacement: drop our copy of this source's shard and
		// install the snapshot. One batched journal append (one fsync)
		// covers the clear, the install, and the cursor mark; the mark is
		// ordered last so a torn write can never acknowledge a cursor
		// whose rows did not make it to disk — recovery sees old mark +
		// partial rows and the next stream forces a resync.
		prefix := replicaPrefix + src + "/"
		var batch []store.KV
		for k := range st.All() {
			if strings.HasPrefix(k, prefix) {
				batch = append(batch, store.KV{Key: k, Delete: true})
			}
		}
		for k, v := range body.Snapshot {
			if !strings.HasPrefix(k, agentPrefix) {
				continue
			}
			batch = append(batch, store.KV{Key: prefix + k, Value: v})
		}
		mb, _ := json.Marshal(replMark{Epoch: body.SrcEpoch, Seq: body.UpTo})
		batch = append(batch, store.KV{Key: markKey, Value: mb})
		if err := st.PutBatch(batch); err != nil {
			return errReply("install snapshot: %v", err)
		}
		return okReply(ReplicateResp{AckSeq: body.UpTo})
	}
	// Incremental: only applies cleanly onto the exact cursor we hold for
	// this (source, store-epoch) pair; anything else needs a resync.
	if have {
		if mark.Epoch != body.SrcEpoch || mark.Seq != body.FromSeq {
			return okReply(ReplicateResp{AckSeq: mark.Seq, NeedSnapshot: true})
		}
	} else if body.FromSeq != 0 {
		return okReply(ReplicateResp{NeedSnapshot: true})
	}
	// One batched append per replication frame: all segments plus the
	// advanced cursor mark under a single fsync, the mark last so a torn
	// write leaves the old cursor and replays cleanly.
	prefix := replicaPrefix + src + "/"
	batch := make([]store.KV, 0, len(body.Segments)+1)
	for _, seg := range body.Segments {
		if !strings.HasPrefix(seg.Key, agentPrefix) {
			continue
		}
		switch seg.Op {
		case store.SegPut:
			batch = append(batch, store.KV{Key: prefix + seg.Key, Value: seg.Value})
		case store.SegDelete:
			batch = append(batch, store.KV{Key: prefix + seg.Key, Delete: true})
		}
	}
	mb, _ := json.Marshal(replMark{Epoch: body.SrcEpoch, Seq: body.UpTo})
	batch = append(batch, store.KV{Key: markKey, Value: mb})
	if err := st.PutBatch(batch); err != nil {
		return errReply("apply replicated segments: %v", err)
	}
	return okReply(ReplicateResp{AckSeq: body.UpTo})
}

func (n *Node) handleFetchReplica(req Request) Reply {
	var body FetchReplicaReq
	if err := decodeBody(req, &body); err != nil {
		return errReply("%v", err)
	}
	st := n.cfg.Store
	var mark replMark
	if b, ok := st.Get(replSeqPrefix + body.Src); ok {
		_ = json.Unmarshal(b, &mark)
	}
	rows, bad := verifier.LoadRows(st, replicaPrefix+body.Src+"/"+agentPrefix)
	for _, re := range bad {
		n.logf("cluster %s: replica row of %s undecodable: %v", n.cfg.NodeID, body.Src, re)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].AgentID < rows[j].AgentID })
	return okReply(FetchReplicaResp{Epoch: mark.Epoch, Seq: mark.Seq, Rows: rows})
}
