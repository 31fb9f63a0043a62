// Package reconcile implements a declarative fleet reconciler: operators
// submit a versioned desired-state spec (agents, tenants, policies), the
// controller journals it durably BEFORE any side effect, and a reconcile
// loop diffs desired vs. actual verifier state each tick, executing
// enroll/update/withdraw operations idempotently until the fleet
// converges. Failed operations retry with per-item exponential backoff
// and jitter, escalating to a parked Degraded state that never blocks
// the rest of the queue; per-tenant token buckets and quotas keep one
// tenant's churn from starving another. The design follows the paper's
// operational finding that imperative one-shot enrollment leaves silent
// divergence windows: here intent is recorded first, and actual state is
// continuously driven toward it.
package reconcile

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// Sentinel errors.
var (
	// ErrQuotaExceeded rejects a spec that asks for more agents than a
	// tenant's quota allows.
	ErrQuotaExceeded = errors.New("reconcile: tenant quota exceeded")
	// ErrNoSpec is returned by Diff when no spec has ever been applied.
	ErrNoSpec = errors.New("reconcile: no spec applied")
)

// Journal keys. The spec lives whole under one key; each applied
// enrollment has its own managed row so per-tick status commits batch
// only what changed.
const (
	specKey       = "spec"
	managedPrefix = "m/"
)

// Step names threaded through faultinject.StepHook. Crash sweeps kill
// the reconciler at every one of these boundaries and assert that a
// restarted controller converges without duplicate enrollments or lost
// withdrawals.
const (
	StepSpecCommit   = "spec-commit"
	StepIntentRecord = "intent-record"
	StepOpEnroll     = "op-enroll"
	StepOpWithdraw   = "op-withdraw"
	StepOpUpdate     = "op-update"
	StepStatusRecord = "status-record"
)

// Fleet is the slice of the verifier's management surface the reconciler
// drives. *verifier.Verifier implements it directly; cluster.FleetProxy
// implements it by routing each call to the ring owner.
type Fleet interface {
	AgentIDs() []string
	AddAgent(agentID, agentURL string, pol *policy.RuntimePolicy) error
	AddAgentWithAK(agentID, agentURL string, akPub []byte, pol *policy.RuntimePolicy) error
	RemoveAgent(agentID string) error
	UpdatePolicy(agentID string, pol *policy.RuntimePolicy) error
}

// Event is one entry in the bounded reconcile event log.
type Event struct {
	Time    time.Time `json:"time"`
	Type    string    `json:"type"`
	Tenant  string    `json:"tenant,omitempty"`
	AgentID string    `json:"agent_id,omitempty"`
	Version uint64    `json:"version"`
	Detail  string    `json:"detail,omitempty"`
}

// Event types.
const (
	EventApplied       = "applied"
	EventEnroll        = "enroll"
	EventWithdraw      = "withdraw"
	EventUpdate        = "update"
	EventAdopt         = "adopt"
	EventRetry         = "retry"
	EventDegraded      = "degraded"
	EventRecovered     = "recovered"
	EventConverged     = "converged"
	EventRateDeferred  = "rate-deferred"
	EventQuotaDeferred = "quota-deferred"
)

// Counters accumulate over the controller's lifetime.
type Counters struct {
	Enrolls       uint64 `json:"enrolls"`
	Withdraws     uint64 `json:"withdraws"`
	Updates       uint64 `json:"updates"`
	Adopts        uint64 `json:"adopts"`
	Retries       uint64 `json:"retries"`
	Degraded      uint64 `json:"degraded"`
	RateDeferred  uint64 `json:"rate_deferred"`
	QuotaDeferred uint64 `json:"quota_deferred"`
}

// PendingOps counts the operations the last computed diff still owes.
type PendingOps struct {
	Enrolls   int `json:"enrolls"`
	Updates   int `json:"updates"`
	Withdraws int `json:"withdraws"`
}

// TenantStatus is one tenant's view in Status.
type TenantStatus struct {
	Agents    int     `json:"agents"`
	MaxAgents int     `json:"max_agents"` // <= 0 unlimited
	Rate      float64 `json:"rate"`       // <= 0 unlimited
	Degraded  int     `json:"degraded"`
}

// Status is the reconciler's observable state, served at
// GET /v2/reconcile/status and via the "reconcile" stats provider.
type Status struct {
	SpecVersion      uint64                  `json:"spec_version"`
	Applies          uint64                  `json:"applies"`
	Ticks            uint64                  `json:"ticks"`
	Managed          int                     `json:"managed"`
	Converged        bool                    `json:"converged"`
	ConvergedVersion uint64                  `json:"converged_version,omitempty"`
	ConvergedTicks   uint64                  `json:"converged_ticks,omitempty"`
	Pending          PendingOps              `json:"pending"`
	Degraded         []string                `json:"degraded,omitempty"`
	Tenants          map[string]TenantStatus `json:"tenants,omitempty"`
	Counters         Counters                `json:"counters"`
}

// Diff is the outstanding work between desired and actual state.
type Diff struct {
	Version   uint64   `json:"version"`
	Enrolls   []string `json:"enrolls,omitempty"`
	Updates   []string `json:"updates,omitempty"`
	Withdraws []string `json:"withdraws,omitempty"`
	Converged bool     `json:"converged"`
}

// Config configures a Controller.
type Config struct {
	// Fleet is the management surface to drive (required).
	Fleet Fleet
	// Store journals the spec and the managed set (required).
	Store *store.Store
	// Clock abstracts time (default real).
	Clock simclock.Clock
	// Step is the fault-injection checkpoint; a non-nil error aborts
	// the operation mid-step, exactly like a crash.
	Step func(name string) error
	// Notify receives lifecycle events (nil discards).
	Notify func(Event)
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)

	// TenantQuota is the default max enrolled agents per tenant
	// (0 = unlimited; per-tenant spec overrides win).
	TenantQuota int
	// TenantRate is the default reconcile-op rate per tenant in ops/sec
	// (0 = unlimited).
	TenantRate float64
	// TenantBurst is the default token-bucket capacity (0 derives from
	// rate).
	TenantBurst int
	// MaxPending caps operations started per tenant per tick (default
	// 256; negative = unlimited).
	MaxPending int
	// MaxRetries bounds attempts before an item is parked Degraded
	// (default 5).
	MaxRetries int
	// BaseBackoff is the first retry delay (default 1s), doubling per
	// attempt up to MaxBackoff (default 1m), jittered ±25%.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DegradedRetry is the slow reprobe interval for parked items
	// (default 5m).
	DegradedRetry time.Duration
	// EventCap bounds the in-memory event log (default 1024).
	EventCap int
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = simclock.Real{}
	}
	if c.MaxPending == 0 {
		c.MaxPending = 256
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Minute
	}
	if c.DegradedRetry <= 0 {
		c.DegradedRetry = 5 * time.Minute
	}
	if c.EventCap <= 0 {
		c.EventCap = 1024
	}
	return c
}

// itemState tracks one agent's retry budget. Items are independent: a
// degraded item is parked on a slow reprobe cadence and never blocks
// the rest of the queue.
type itemState struct {
	attempts    int
	nextAttempt time.Time
	degraded    bool
	lastErr     string
}

// bucket is a per-tenant token bucket over the controller clock.
type bucket struct {
	tokens float64
	last   time.Time
}

// Controller drives actual fleet state toward the journaled spec.
type Controller struct {
	cfg Config

	mu        sync.Mutex
	spec      *FleetSpec
	desired   map[string]*desiredAgent
	limits    map[string]tenantLimits
	managed   map[string]managedRow
	tomb      map[string]int // ticks a tombstone's agent has stayed gone
	items     map[string]*itemState
	buckets   map[string]*bucket
	events    []Event
	eventsPos int
	counters  Counters

	applies       uint64
	ticks         uint64
	appliedAtTick uint64
	converged     bool
	convergedAt   uint64 // ticks from apply to convergence

	rng *simclock.Jitter
}

// New builds a Controller and recovers any journaled spec + managed set,
// so a restarted reconciler resumes exactly where the killed one left
// off.
func New(cfg Config) (*Controller, error) {
	if cfg.Fleet == nil || cfg.Store == nil {
		return nil, errors.New("reconcile: Fleet and Store are required")
	}
	c := &Controller{
		cfg:     cfg.withDefaults(),
		desired: make(map[string]*desiredAgent),
		limits:  make(map[string]tenantLimits),
		managed: make(map[string]managedRow),
		tomb:    make(map[string]int),
		items:   make(map[string]*itemState),
		buckets: make(map[string]*bucket),
		rng:     simclock.NewJitter(0),
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// recover reloads the journaled spec and managed rows. The store's
// journal is prefix-durable, so whatever is present was acknowledged;
// strict decoding is correct here — a corrupt row means the journal
// itself is damaged, not that a crash interleaved badly.
func (c *Controller) recover() error {
	if raw, ok := c.cfg.Store.Get(specKey); ok {
		var s FleetSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return fmt.Errorf("reconcile: recovering spec: %w", err)
		}
		desired, limits, err := resolveSpec(&s, c.cfg.TenantQuota, c.cfg.TenantRate, c.cfg.TenantBurst)
		if err != nil {
			return fmt.Errorf("reconcile: recovering spec: %w", err)
		}
		c.spec, c.desired, c.limits = &s, desired, limits
		c.applies = 1 // at least one apply happened before the crash
	}
	for key, raw := range c.cfg.Store.All() {
		if len(key) <= len(managedPrefix) || key[:len(managedPrefix)] != managedPrefix {
			continue
		}
		var row managedRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return fmt.Errorf("reconcile: recovering managed row %s: %w", key, err)
		}
		c.managed[key[len(managedPrefix):]] = row
	}
	if c.spec != nil {
		c.logf("reconcile: recovered spec v%d, %d managed agents", c.spec.Version, len(c.managed))
	}
	return nil
}

// Apply validates and journals a new desired spec, assigning the next
// version. The spec is durable before Apply returns — and before any
// side effect happens — so a crash immediately after never loses intent.
// Retry budgets reset on apply: new intent gets a fresh chance.
func (c *Controller) Apply(s *FleetSpec) (uint64, Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	desired, limits, err := resolveSpec(s, c.cfg.TenantQuota, c.cfg.TenantRate, c.cfg.TenantBurst)
	if err != nil {
		return 0, Diff{}, err
	}
	next := uint64(1)
	if c.spec != nil {
		next = c.spec.Version + 1
	}
	spec := *s
	spec.Version = next
	raw, err := json.Marshal(&spec)
	if err != nil {
		return 0, Diff{}, fmt.Errorf("reconcile: marshaling spec: %w", err)
	}
	if err := c.step(StepSpecCommit); err != nil {
		return 0, Diff{}, err
	}
	if err := c.cfg.Store.Put(specKey, raw); err != nil {
		return 0, Diff{}, fmt.Errorf("reconcile: journaling spec: %w", err)
	}
	c.spec, c.desired, c.limits = &spec, desired, limits
	c.items = make(map[string]*itemState)
	c.applies++
	c.appliedAtTick = c.ticks
	c.converged = false
	c.event(Event{Type: EventApplied, Version: next,
		Detail: fmt.Sprintf("%d agents, %d tenants", len(desired), len(limits))})
	c.logf("reconcile: applied spec v%d (%d agents)", next, len(desired))
	return next, c.diffLocked(), nil
}

// op is one unit of reconcile work for a tick.
type op struct {
	kind    string // EventEnroll | EventWithdraw | EventUpdate | EventAdopt
	id      string
	tenant  string
	d       *desiredAgent // nil for withdraws
	row     managedRow    // prior row (withdraw / re-enroll)
	reURL   bool          // URL changed: remove then re-add
	stepTag string
}

// actualLocked snapshots the fleet's enrolled IDs.
func (c *Controller) actualLocked() map[string]bool {
	actual := make(map[string]bool)
	for _, id := range c.cfg.Fleet.AgentIDs() {
		actual[id] = true
	}
	return actual
}

// diffOpsLocked computes the tick's work list: withdraws first (free
// capacity before adding), then enrolls/updates in sorted ID order so
// execution is deterministic.
func (c *Controller) diffOpsLocked(actual map[string]bool) []op {
	if c.spec == nil {
		return nil
	}
	var withdraws, rest []op
	for id, row := range c.managed {
		if _, want := c.desired[id]; want {
			continue
		}
		// Live row: withdraw. Tombstone whose agent is back in the fleet
		// (resurrected by an at-least-once restore): withdraw again.
		if !row.Withdrawn || actual[id] {
			withdraws = append(withdraws, op{kind: EventWithdraw, id: id,
				tenant: row.Tenant, row: row, stepTag: StepOpWithdraw})
		}
	}
	for id, d := range c.desired {
		row, isManaged := c.managed[id]
		if isManaged && row.Withdrawn {
			// A tombstoned agent wanted again is a fresh enrollment, not
			// a URL/policy reconciliation against the stale row.
			row, isManaged = managedRow{}, false
		}
		switch {
		case !actual[id]:
			rest = append(rest, op{kind: EventEnroll, id: id, tenant: d.tenant,
				d: d, row: row, stepTag: StepOpEnroll})
		case isManaged && row.URL != d.spec.URL:
			// Contact URL changed: withdraw the stale enrollment and
			// re-enroll at the new address.
			rest = append(rest, op{kind: EventEnroll, id: id, tenant: d.tenant,
				d: d, row: row, reURL: true, stepTag: StepOpEnroll})
		case isManaged && row.Hash != d.hash:
			rest = append(rest, op{kind: EventUpdate, id: id, tenant: d.tenant,
				d: d, row: row, stepTag: StepOpUpdate})
		case !isManaged:
			// Enrolled outside any spec (imperative CLI) but now declared:
			// adopt it — converge its policy and start tracking it.
			rest = append(rest, op{kind: EventAdopt, id: id, tenant: d.tenant,
				d: d, stepTag: StepOpUpdate})
		}
	}
	sort.Slice(withdraws, func(i, j int) bool { return withdraws[i].id < withdraws[j].id })
	sort.Slice(rest, func(i, j int) bool { return rest[i].id < rest[j].id })
	return append(withdraws, rest...)
}

// Tick runs one reconcile pass in three journaled phases. First, ops
// that would create ownership of a not-yet-managed agent (fresh enroll,
// adopt) write-ahead an intent row — a managed row with an empty policy
// hash — in one batched commit BEFORE any side effect, so a crash right
// after the fleet call still leaves the reconciler knowing it owns the
// agent (and able to withdraw it under a later spec). Then each side
// effect runs behind its own Step checkpoint. Finally one batched commit
// records completed rows; a crash anywhere in between re-executes ops
// next tick, where ErrDuplicate / ErrUnknownAgent are treated as
// already-applied — so enrollments never duplicate, withdrawals are
// never lost, and no enrolled agent is ever orphaned as unmanaged.
func (c *Controller) Tick() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	actual := c.actualLocked()
	ops := c.diffOpsLocked(actual)
	now := c.cfg.Clock.Now()
	var attempt []op
	started := make(map[string]int)   // per-tenant ops started this tick
	deferred := make(map[string]bool) // quota-deferred event emitted this tick
	for _, o := range ops {
		it := c.items[o.id]
		if it != nil && now.Before(it.nextAttempt) {
			continue
		}
		if c.cfg.MaxPending > 0 && started[o.tenant] >= c.cfg.MaxPending {
			if !deferred[o.tenant] {
				deferred[o.tenant] = true
				c.counters.QuotaDeferred++
				c.event(Event{Type: EventQuotaDeferred, Tenant: o.tenant,
					Version: c.spec.Version,
					Detail:  fmt.Sprintf("pending-op cap %d reached", c.cfg.MaxPending)})
			}
			continue
		}
		if !c.takeTokenLocked(o.tenant, now) {
			c.counters.RateDeferred++
			c.event(Event{Type: EventRateDeferred, Tenant: o.tenant,
				AgentID: o.id, Version: c.spec.Version})
			continue
		}
		started[o.tenant]++
		attempt = append(attempt, o)
	}
	// Write-ahead ownership intent. URL-change re-enrolls keep their old
	// row (ownership is already held; the row flips to the new URL only
	// after remove+add both complete, so a crash mid-way re-runs the
	// re-enroll instead of losing the URL change).
	var intent []store.KV
	for _, o := range attempt {
		if row, owned := c.managed[o.id]; owned && !row.Withdrawn {
			continue
		}
		if (o.kind == EventEnroll && !o.reURL) || o.kind == EventAdopt {
			row := managedRow{URL: o.d.spec.URL, Tenant: o.d.tenant, Cohort: o.d.spec.Cohort}
			raw, _ := json.Marshal(row)
			intent = append(intent, store.KV{Key: managedPrefix + o.id, Value: raw})
		}
	}
	if len(intent) > 0 {
		if err := c.step(StepIntentRecord); err != nil {
			return err
		}
		if err := c.cfg.Store.PutBatch(intent); err != nil {
			return fmt.Errorf("reconcile: journaling intent rows: %w", err)
		}
		for _, kv := range intent {
			var row managedRow
			_ = json.Unmarshal(kv.Value, &row)
			c.managed[kv.Key[len(managedPrefix):]] = row
		}
	}
	var batch []store.KV
	for _, o := range attempt {
		if err := c.step(o.stepTag); err != nil {
			return err
		}
		kvs, err := c.executeLocked(o)
		if err != nil {
			c.backoffLocked(o, now, err)
			continue
		}
		batch = append(batch, kvs...)
		c.settleLocked(o)
	}
	batch = append(batch, c.tombstoneGCLocked(actual)...)
	if err := c.step(StepStatusRecord); err != nil {
		return err
	}
	if err := c.cfg.Store.PutBatch(batch); err != nil {
		return fmt.Errorf("reconcile: journaling managed rows: %w", err)
	}
	// Apply the journaled rows to the in-memory managed set only after
	// the batch is durable, mirroring what recovery would reconstruct.
	for _, kv := range batch {
		id := kv.Key[len(managedPrefix):]
		if kv.Delete {
			delete(c.managed, id)
		} else {
			var row managedRow
			_ = json.Unmarshal(kv.Value, &row)
			c.managed[id] = row
		}
	}
	c.updateConvergedLocked()
	return nil
}

// executeLocked performs one op's side effects and returns the managed-
// row mutations to journal. Idempotency contract: "already done" errors
// from the fleet are success.
func (c *Controller) executeLocked(o op) ([]store.KV, error) {
	switch o.kind {
	case EventWithdraw:
		err := c.cfg.Fleet.RemoveAgent(o.id)
		if err != nil && !errors.Is(err, verifier.ErrUnknownAgent) {
			return nil, err
		}
		// Tombstone, not delete: if an at-least-once restore resurrects
		// this agent later, the row proves prior ownership and the ghost
		// is withdrawn again rather than leaking as unmanaged.
		row := o.row
		row.Withdrawn = true
		raw, _ := json.Marshal(row)
		return []store.KV{{Key: managedPrefix + o.id, Value: raw}}, nil
	case EventEnroll:
		if o.reURL {
			// Old enrollment points at a stale URL; remove before re-adding.
			if err := c.cfg.Fleet.RemoveAgent(o.id); err != nil && !errors.Is(err, verifier.ErrUnknownAgent) {
				return nil, err
			}
		}
		var err error
		if o.d.akPub != nil {
			err = c.cfg.Fleet.AddAgentWithAK(o.id, o.d.spec.URL, o.d.akPub, o.d.pol)
		} else {
			err = c.cfg.Fleet.AddAgent(o.id, o.d.spec.URL, o.d.pol)
		}
		if errors.Is(err, verifier.ErrDuplicate) {
			// Lost the race with a crash-replayed or concurrent enroll of
			// the same intent: converge the policy instead.
			err = c.cfg.Fleet.UpdatePolicy(o.id, o.d.pol)
		}
		if err != nil {
			return nil, err
		}
		return []store.KV{c.rowKV(o.d)}, nil
	case EventUpdate, EventAdopt:
		err := c.cfg.Fleet.UpdatePolicy(o.id, o.d.pol)
		if errors.Is(err, verifier.ErrUnknownAgent) {
			// Vanished between diff and execute (imperative delete racing
			// us). Drop any managed row; the next tick re-enrolls if the
			// spec still wants it.
			return []store.KV{{Key: managedPrefix + o.id, Delete: true}}, nil
		}
		if err != nil {
			return nil, err
		}
		return []store.KV{c.rowKV(o.d)}, nil
	}
	return nil, fmt.Errorf("reconcile: unknown op %q", o.kind)
}

// tombstoneGCTicks is how many consecutive ticks a withdrawn agent must
// stay absent from the fleet (and undesired) before its tombstone is
// collected. The window only has to outlive resurrection sources — a
// failover replaying a replica that lagged the removal — which surface
// within a tick or two of the event.
const tombstoneGCTicks = 8

// tombstoneGCLocked expires tombstones whose agents have stayed gone,
// returning the journal deletions to fold into the tick's status batch.
// The absence counter is in-memory only; a restart just restarts the
// wait, which errs toward keeping tombstones longer — the safe side.
func (c *Controller) tombstoneGCLocked(actual map[string]bool) []store.KV {
	var kvs []store.KV
	for id, row := range c.managed {
		if !row.Withdrawn {
			delete(c.tomb, id)
			continue
		}
		if _, want := c.desired[id]; want || actual[id] {
			delete(c.tomb, id)
			continue
		}
		c.tomb[id]++
		if c.tomb[id] >= tombstoneGCTicks {
			kvs = append(kvs, store.KV{Key: managedPrefix + id, Delete: true})
			delete(c.tomb, id)
		}
	}
	return kvs
}

// rowKV builds the journaled managed row for a desired agent.
func (c *Controller) rowKV(d *desiredAgent) store.KV {
	row := managedRow{URL: d.spec.URL, Tenant: d.tenant, Hash: d.hash, Cohort: d.spec.Cohort}
	raw, _ := json.Marshal(row)
	return store.KV{Key: managedPrefix + d.spec.ID, Value: raw}
}

// settleLocked records a successful op: event, counter, retry reset.
func (c *Controller) settleLocked(o op) {
	if it, ok := c.items[o.id]; ok {
		if it.degraded {
			c.event(Event{Type: EventRecovered, Tenant: o.tenant, AgentID: o.id,
				Version: c.spec.Version})
		}
		delete(c.items, o.id)
	}
	switch o.kind {
	case EventEnroll:
		c.counters.Enrolls++
	case EventWithdraw:
		c.counters.Withdraws++
	case EventUpdate:
		c.counters.Updates++
	case EventAdopt:
		c.counters.Adopts++
	}
	c.event(Event{Type: o.kind, Tenant: o.tenant, AgentID: o.id, Version: c.spec.Version})
}

// backoffLocked schedules a failed op's next attempt: exponential with
// jitter up to MaxBackoff, parking the item Degraded after MaxRetries.
// Degraded items keep reprobing at the slow DegradedRetry cadence.
func (c *Controller) backoffLocked(o op, now time.Time, err error) {
	it := c.items[o.id]
	if it == nil {
		it = &itemState{}
		c.items[o.id] = it
	}
	it.attempts++
	it.lastErr = err.Error()
	if it.attempts >= c.cfg.MaxRetries {
		it.nextAttempt = now.Add(c.jittered(c.cfg.DegradedRetry))
		if !it.degraded {
			it.degraded = true
			c.counters.Degraded++
			c.event(Event{Type: EventDegraded, Tenant: o.tenant, AgentID: o.id,
				Version: c.spec.Version,
				Detail:  fmt.Sprintf("after %d attempts: %v", it.attempts, err)})
			c.logf("reconcile: %s degraded after %d attempts: %v", o.id, it.attempts, err)
		}
		return
	}
	delay := c.cfg.BaseBackoff << (it.attempts - 1)
	if delay > c.cfg.MaxBackoff || delay <= 0 {
		delay = c.cfg.MaxBackoff
	}
	it.nextAttempt = now.Add(c.jittered(delay))
	c.counters.Retries++
	c.event(Event{Type: EventRetry, Tenant: o.tenant, AgentID: o.id,
		Version: c.spec.Version,
		Detail:  fmt.Sprintf("attempt %d: %v", it.attempts, err)})
}

// takeTokenLocked consumes one op token from the tenant's bucket,
// refilling by elapsed clock time. Unlimited-rate tenants always pass.
func (c *Controller) takeTokenLocked(tenant string, now time.Time) bool {
	lim, ok := c.limits[tenant]
	if !ok || lim.rate <= 0 {
		return true
	}
	b := c.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: lim.burst, last: now}
		c.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * lim.rate
		if b.tokens > lim.burst {
			b.tokens = lim.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// updateConvergedLocked recomputes convergence: no outstanding ops for
// non-degraded items. Degraded items are parked, reported separately,
// and do not hold convergence hostage — that is the isolation property.
func (c *Controller) updateConvergedLocked() {
	if c.spec == nil {
		return
	}
	pending := 0
	for _, o := range c.diffOpsLocked(c.actualLocked()) {
		if it := c.items[o.id]; it != nil && it.degraded {
			continue
		}
		pending++
	}
	if pending == 0 && !c.converged {
		c.converged = true
		c.convergedAt = c.ticks - c.appliedAtTick
		c.event(Event{Type: EventConverged, Version: c.spec.Version,
			Detail: fmt.Sprintf("after %d ticks", c.convergedAt)})
		c.logf("reconcile: spec v%d converged after %d ticks", c.spec.Version, c.convergedAt)
	} else if pending > 0 {
		c.converged = false
	}
}

// Status returns the reconciler's observable state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Applies:  c.applies,
		Ticks:    c.ticks,
		Counters: c.counters,
		Tenants:  make(map[string]TenantStatus),
	}
	for _, row := range c.managed {
		if !row.Withdrawn {
			st.Managed++
		}
	}
	if c.spec != nil {
		st.SpecVersion = c.spec.Version
	}
	if c.converged {
		st.Converged = true
		st.ConvergedVersion = st.SpecVersion
		st.ConvergedTicks = c.convergedAt
	}
	for tn, lim := range c.limits {
		st.Tenants[tn] = TenantStatus{MaxAgents: lim.maxAgents, Rate: lim.rate}
	}
	for _, d := range c.desired {
		ts := st.Tenants[d.tenant]
		ts.Agents++
		st.Tenants[d.tenant] = ts
	}
	for _, o := range c.diffOpsLocked(c.actualLocked()) {
		if it := c.items[o.id]; it != nil && it.degraded {
			st.Degraded = append(st.Degraded, o.id)
			ts := st.Tenants[o.tenant]
			ts.Degraded++
			st.Tenants[o.tenant] = ts
			continue
		}
		switch o.kind {
		case EventEnroll:
			st.Pending.Enrolls++
		case EventWithdraw:
			st.Pending.Withdraws++
		case EventUpdate, EventAdopt:
			st.Pending.Updates++
		}
	}
	sort.Strings(st.Degraded)
	return st
}

// Diff reports the outstanding desired-vs-actual delta without executing
// anything.
func (c *Controller) Diff() (Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spec == nil {
		return Diff{}, ErrNoSpec
	}
	return c.diffLocked(), nil
}

func (c *Controller) diffLocked() Diff {
	d := Diff{Version: c.spec.Version}
	for _, o := range c.diffOpsLocked(c.actualLocked()) {
		switch o.kind {
		case EventEnroll:
			d.Enrolls = append(d.Enrolls, o.id)
		case EventWithdraw:
			d.Withdraws = append(d.Withdraws, o.id)
		case EventUpdate, EventAdopt:
			d.Updates = append(d.Updates, o.id)
		}
	}
	d.Converged = len(d.Enrolls)+len(d.Updates)+len(d.Withdraws) == 0
	return d
}

// Events returns the bounded event log, oldest first.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, len(c.events))
	out = append(out, c.events[c.eventsPos:]...)
	out = append(out, c.events[:c.eventsPos]...)
	return out
}

// event appends to the bounded ring and forwards to Notify.
func (c *Controller) event(ev Event) {
	ev.Time = c.cfg.Clock.Now()
	if len(c.events) < c.cfg.EventCap {
		c.events = append(c.events, ev)
	} else {
		c.events[c.eventsPos] = ev
		c.eventsPos = (c.eventsPos + 1) % c.cfg.EventCap
	}
	if c.cfg.Notify != nil {
		c.cfg.Notify(ev)
	}
}

func (c *Controller) step(name string) error {
	if c.cfg.Step == nil {
		return nil
	}
	return c.cfg.Step(name)
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// jittered spreads d over [0.75d, 1.25d).
func (c *Controller) jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*c.rng.Unit()))
}
