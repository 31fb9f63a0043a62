package main

import (
	"math"
	"time"

	"repro/internal/keylime/verifier"
)

// window is one stretch of the timed phase and the sweeps it completed.
type window struct {
	start, end time.Time
	paused     time.Duration // time inside the window that is not measured
	sweeps     int
	stats      verifier.PollStats
}

func (w *window) add(st verifier.PollStats) {
	w.sweeps++
	w.stats.Attested += st.Attested
	w.stats.Failed += st.Failed
	w.stats.Degraded += st.Degraded
	w.stats.Halted += st.Halted
	w.stats.Quarantined += st.Quarantined
	w.stats.Errors += st.Errors
	w.stats.SessionRounds += st.SessionRounds
	w.stats.FullQuoteRounds += st.FullQuoteRounds
	w.stats.ForcedUpgrades += st.ForcedUpgrades
	w.stats.AuditBatched += st.AuditBatched
	w.stats.AuditFlushErrs += st.AuditFlushErrs
}

func (w *window) seconds() float64 { return (w.end.Sub(w.start) - w.paused).Seconds() }

// attempted counts rounds the sweeps tried; failedRounds the ones that
// ended without a clean verdict (degraded, errored, skipped as halted or
// quarantined) plus sweeps whose audit batch did not commit.
func attempted(st verifier.PollStats) int {
	return st.Attested + st.Degraded + st.Errors + st.Halted + st.Quarantined
}

func failedRounds(st verifier.PollStats) int {
	return st.Degraded + st.Errors + st.Halted + st.Quarantined + st.AuditFlushErrs
}

// timed is the measured phase: one window of sweeps. With tracing the
// wrappers record for the whole window; the tracing overhead is the
// traced run's rounds_per_s against the untraced run with the same seed.
type timed struct {
	cfg   *config
	end   time.Time
	win   window
	cpu0  cpuSnap
	cpu1  cpuSnap
	dials int64 // connections accepted before the window
}

func startTimed(cfg *config) *timed {
	t := &timed{cfg: cfg}
	if cfg.trace {
		t.cpu0 = readCPU()
		t.dials = cfg.p.dials.Load()
		cfg.tr.on.Store(true)
	}
	t.win.start = time.Now()
	t.end = t.win.start.Add(time.Duration(cfg.seconds) * time.Second)
	return t
}

// done reports whether the phase is over.
func (t *timed) done() bool { return !time.Now().Before(t.end) }

func (t *timed) add(st verifier.PollStats) { t.win.add(st) }

// pause runs fn between sweeps, outside the measurement: the phase ends
// that much later, the window's length leaves it out and the wrappers do
// not record it.
func (t *timed) pause(fn func()) {
	if t.cfg.trace {
		t.cfg.tr.on.Store(false)
		defer t.cfg.tr.on.Store(true)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	t.win.paused += d
	t.end = t.end.Add(d)
}

// finish closes the phase and returns its window.
func (t *timed) finish() *window {
	t.win.end = time.Now()
	if t.cfg.trace {
		t.cpu1 = readCPU()
		t.cfg.tr.on.Store(false)
	}
	return &t.win
}

// custody runs the offline custody walk as a traced custody span.
func (t *timed) custody(fn func()) {
	if !t.cfg.trace {
		fn()
		return
	}
	t.cfg.tr.on.Store(true)
	defer t.cfg.tr.on.Store(false)
	t.cfg.tr.phase(layerCustody, fn)
}

// layerMetrics fills the per-layer metrics every workload measures, from
// the traced window.
func (t *timed) layerMetrics(out *outcome) {
	if !t.cfg.trace {
		return
	}
	p := t.cfg.p
	w := &t.win
	cpu1 := t.cpu1
	sweeps := float64(max(w.sweeps, 1))
	rounds := float64(max(w.stats.Attested, 1))
	L := out.layers
	set := func(name string, v float64, unit string, n int) { L[name] = metric{Value: v, Unit: unit, N: n} }

	p.mu.Lock()
	L["transport.round_us_p50"] = median(&p.roundUS, "us")
	L["transport.round_us_p95"] = pct(&p.roundUS, 95, "us")
	L["transport.round_us_p99"] = pct(&p.roundUS, 99, "us")
	withTail(L, "transport.round_us", &p.roundUS, "us")
	L["agent.session_us_p50"] = median(&p.sessionUS, "us")
	L["agent.full_quote_us_p50"] = median(&p.fullUS, "us")
	L["audit.fsync_ms_p50"] = median(p.fsyncMS[layerAudit], "ms")
	L["store.fsync_ms_p50"] = median(p.fsyncMS[layerStore], "ms")
	L["cluster.rpc_us_p50"] = median(&p.rpcUS, "us")
	L["cluster.tick_ms_p50"] = median(&p.tickMS, "ms")
	L["persist.export_ms_p50"] = median(&p.exportMS, "ms")
	L["persist.encode_ms_p50"] = median(&p.encodeMS, "ms")
	L["store.putbatch_ms_p50"] = median(&p.putMS, "ms")
	L["persist.row_bytes_mean"] = metric{Value: p.rowBytes.mean(), Unit: "B", N: p.rowBytes.n()}
	nRounds := p.roundUS.n()
	p.mu.Unlock()

	set("transport.bytes_per_round", float64(p.wireBytes.Load())/float64(max(nRounds, 1)), "B", nRounds)
	set("transport.dials", float64(p.dials.Load()-t.dials), "count", 1)
	set("verifier.session_rounds_per_sweep", float64(w.stats.SessionRounds)/sweeps, "count", w.sweeps)
	set("verifier.full_rounds_per_sweep", float64(w.stats.FullQuoteRounds)/sweeps, "count", w.sweeps)
	set("verifier.forced_full_per_sweep", float64(w.stats.ForcedUpgrades)/sweeps, "count", w.sweeps)
	set("store.bytes_per_sweep", float64(p.writeBytes[fsStore].Load())/sweeps, "B", w.sweeps)
	set("store.fsyncs_per_sweep", float64(p.fsyncs[fsStore].Load())/sweeps, "count", w.sweeps)
	set("audit.bytes_per_sweep", float64(p.writeBytes[fsAudit].Load())/sweeps, "B", w.sweeps)
	set("audit.fsyncs_per_sweep", float64(p.fsyncs[fsAudit].Load())/sweeps, "count", w.sweeps)
	set("webhook.outbox_fsyncs", float64(p.fsyncs[fsWebhook].Load()), "count", 1)
	set("runtime.alloc_bytes_per_round", (cpu1.allocBytes-t.cpu0.allocBytes)/rounds, "B", w.stats.Attested)
	gc := math.NaN()
	if d := cpu1.totalCPU - t.cpu0.totalCPU; d > 0 {
		gc = (cpu1.gcCPU - t.cpu0.gcCPU) / d
	}
	set("runtime.gc_cpu_fraction", gc, "ratio", 1)

	// Self time: each span's duration minus what its children cover.
	// The shares are of all layers' self time together.
	self := selfTimes(t.cfg.tr.snapshot())
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range allLayers {
		us := float64(self[l].Microseconds())
		set("self."+l+"_us_per_round", us/rounds, "us", w.stats.Attested)
		set("self."+l+"_share", float64(self[l])/float64(max(total, 1)), "ratio", 1)
	}
}
