package verifier

// Durable agent rows. The standalone verifier, a cluster node's shard
// and the durable benchmarks all keep the agent table the same way: one
// JSON AgentState per agent, keyed by an optional prefix plus the agent
// ID, in a journaled store.Store. Persister is the one owner of that
// format: it flushes a sweep's dirty rows as one batch and restores the
// rows on startup.

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/keylime/store"
)

// Persister journals a verifier's agent rows under a key prefix.
type Persister struct {
	v      *Verifier
	st     *store.Store
	prefix string

	mu    sync.Mutex // serializes Flush, so rows land in drain order
	stats PersistStats
}

// PersistStats counts a Persister's flushes (one per sweep, plus a
// cluster node's handoff installs) for the "persist" stats provider. A
// climbing Errors means rows are waiting on retry; a verifier that
// silently stops persisting re-trusts from scratch after its next crash.
type PersistStats struct {
	Flushes  int
	Errors   int           // failed flushes
	LastRows int           // rows the last flush wrote
	LastDur  time.Duration // how long the last flush took
}

// NewPersister returns a Persister for v's rows in st under prefix.
func NewPersister(v *Verifier, st *store.Store, prefix string) *Persister {
	return &Persister{v: v, st: st, prefix: prefix}
}

// Flush drains the dirty set and journals the changed rows and removals
// as one PutBatch — one fsync per sweep, however many agents changed. If
// anything fails, every drained ID is marked dirty again, so the next
// Flush retries it with its then-current state. It returns the number of
// rows written.
func (p *Persister) Flush() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	rows, err := p.flushLocked()
	p.stats.Flushes++
	p.stats.LastRows = rows
	p.stats.LastDur = time.Since(start)
	if err != nil {
		p.stats.Errors++
	}
	return rows, err
}

func (p *Persister) flushLocked() (int, error) {
	changed, removed, err := p.v.ExportDirty()
	if err != nil {
		return 0, err // ExportDirty re-marked the drained IDs
	}
	batch := make([]store.KV, 0, len(changed)+len(removed))
	for _, as := range changed {
		data, merr := json.Marshal(as)
		if merr != nil {
			err = fmt.Errorf("encoding agent %s: %w", as.AgentID, merr)
			break
		}
		batch = append(batch, store.KV{Key: p.prefix + as.AgentID, Value: data})
	}
	for _, id := range removed {
		batch = append(batch, store.KV{Key: p.prefix + id, Delete: true})
	}
	if err == nil {
		if err = p.st.PutBatch(batch); err != nil {
			err = fmt.Errorf("journaling %d agent rows: %w", len(batch), err)
		}
	}
	if err != nil {
		for _, as := range changed {
			p.v.markDirty(as.AgentID)
		}
		for _, id := range removed {
			p.v.markDirty(id)
		}
		return 0, err
	}
	return len(batch), nil
}

// Stats returns a snapshot of the flush counters.
func (p *Persister) Stats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Restore loads the prefixed rows into the empty verifier. A strict
// restore refuses the first undecodable or corrupt row; a lenient one
// skips and reports it, so one bad row does not keep the fleet
// unmonitored.
func (p *Persister) Restore(lenient bool) ([]RestoreError, error) {
	rows, skipped := LoadRows(p.st, p.prefix)
	if len(rows) == 0 && len(skipped) == 0 {
		return nil, nil
	}
	if len(skipped) > 0 && !lenient {
		return nil, skipped[0]
	}
	bad, err := p.v.restoreState(Snapshot{Agents: rows}, lenient)
	return append(skipped, bad...), err
}

// LoadRows decodes every agent row under prefix. Undecodable rows are
// reported, not fatal; the caller decides whether one aborts its load.
func LoadRows(st *store.Store, prefix string) ([]AgentState, []RestoreError) {
	var rows []AgentState
	var skipped []RestoreError
	for k, data := range st.All() {
		id, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		var as AgentState
		if err := json.Unmarshal(data, &as); err != nil {
			skipped = append(skipped, RestoreError{AgentID: id, Field: "row", Err: err})
			continue
		}
		rows = append(rows, as)
	}
	return rows, skipped
}
