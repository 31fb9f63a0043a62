package main

import (
	"context"
	"io"
	"io/fs"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keylime/cluster"
	"repro/internal/keylime/store"
)

// Layer names: the repository's modules, as the report groups them.
const (
	layerVerifier  = "verifier"
	layerTransport = "transport"
	layerAgent     = "agent"
	layerPersist   = "persist"
	layerStore     = "store"
	layerAudit     = "audit"
	layerWebhook   = "webhook"
	layerCustody   = "custody"
	layerCluster   = "cluster"
)

var allLayers = []string{layerVerifier, layerTransport, layerAgent, layerPersist,
	layerStore, layerAudit, layerWebhook, layerCustody, layerCluster}

// spanHeader carries the transport span's ID to the agent middleware, so
// the agent's span of a request names the round trip that caused it.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; parent is 0 for a root.
type span struct {
	id, parent uint64
	layer      string
	start, end int64
}

// tracer keeps spans in memory while on. A nil tracer (the untraced run)
// records nothing and costs one nil check per boundary.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	// cur is the sweep loop's innermost open phase: the parent of work that
	// other goroutines do on its behalf (journal writes, cluster RPCs).
	cur   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin allocates a span ID and stamps its start; id 0 means "not traced".
func (t *tracer) begin() (id uint64, start int64) {
	if !t.enabled() {
		return 0, 0
	}
	return t.ids.Add(1), t.now()
}

// end records a span begun with begin.
func (t *tracer) end(id, parent uint64, layer string, start int64) {
	if id == 0 {
		return
	}
	s := span{id: id, parent: parent, layer: layer, start: start, end: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase runs fn as a sweep-loop span of layer, nested under the
// current phase, and returns fn's wall time (measured traced or not).
func (t *tracer) phase(layer string, fn func()) time.Duration {
	if !t.enabled() {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id, start := t.begin()
	prev := t.cur.Swap(id)
	fn()
	t.cur.Store(prev)
	t.end(id, prev, layer, start)
	return time.Duration(t.now() - start)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children may overlap each other (the
// sweep runs rounds concurrently); their union is subtracted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.end - s.start) - covered(s.start, s.end, children[s.id])
		if self < 0 {
			self = 0
		}
		out[s.layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the child intervals clipped to
// [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, start), min(k.end, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// probe holds the per-layer counters and samples the wrappers fill while
// the tracer is on.
type probe struct {
	t *tracer

	mu         sync.Mutex
	roundUS    sample // transport round trips
	sessionUS  sample // agent handler, session-MAC answers
	fullUS     sample // agent handler, full-quote answers
	fsyncMS    map[string]*sample
	rpcUS      sample
	exportMS   sample       // persist: ExportDirty
	encodeMS   sample       // persist: json.Marshal of the sweep's rows
	putMS      sample       // store: PutBatch
	rowBytes   sample       // persist: mean encoded row size per sweep
	tickMS     sample       // cluster: Node.Tick
	wireBytes  atomic.Int64 // agent-socket bytes in both directions
	rounds     atomic.Int64 // transport round trips
	dials      atomic.Int64 // connections the agents accepted (whole run)
	writeBytes [numFSLayers]atomic.Int64
	fsyncs     [numFSLayers]atomic.Int64
	replBytes  atomic.Int64
}

// Journal files are attributed to the layer that owns them.
const (
	fsStore = iota
	fsAudit
	fsWebhook
	fsOther
	numFSLayers
)

var fsLayerNames = [numFSLayers]string{layerStore, layerAudit, layerWebhook, layerAudit}

// fsLayerOf maps a journal path to its owning layer: the state store's
// directory, the audit journal, the revocation outbox; the DSSE keyring
// is counted with audit, whose checkpoints it signs.
func fsLayerOf(path string) int {
	switch {
	case strings.Contains(path, "/state/"):
		return fsStore
	case strings.HasSuffix(path, auditFile):
		return fsAudit
	case strings.HasSuffix(path, outboxFile):
		return fsWebhook
	}
	return fsOther
}

func newProbe(t *tracer) *probe {
	p := &probe{t: t, fsyncMS: make(map[string]*sample)}
	for _, l := range fsLayerNames {
		p.fsyncMS[l] = &sample{}
	}
	return p
}

func (p *probe) observe(s *sample, v float64) {
	p.mu.Lock()
	s.add(v)
	p.mu.Unlock()
}

// roundTripper times each verifier→agent round trip, from the request
// until the verifier closes the response body.
type roundTripper struct {
	base http.RoundTripper
	p    *probe
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.p.t
	id, start := t.begin()
	if id == 0 {
		return rt.base.RoundTrip(req)
	}
	parent := t.cur.Load()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		t.end(id, parent, layerTransport, start)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.end(id, parent, layerTransport, start)
		rt.p.rounds.Add(1)
		rt.p.observe(&rt.p.roundUS, float64(t.now()-start)/1e3)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// agentMiddleware times agent.Handler() per request and classifies the
// answer by its KLA1 response frame kind (byte 4 after the magic).
func agentMiddleware(h http.Handler, p *probe) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := p.t
		id, start := t.begin()
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		kw := &kindWriter{ResponseWriter: w}
		h.ServeHTTP(kw, r)
		t.end(id, parent, layerAgent, start)
		us := float64(t.now()-start) / 1e3
		switch kw.kind {
		case 0x82:
			p.observe(&p.sessionUS, us)
		case 0x81:
			p.observe(&p.fullUS, us)
		}
	})
}

type kindWriter struct {
	http.ResponseWriter
	kind  byte
	wrote int
}

func (k *kindWriter) Write(b []byte) (int, error) {
	if k.wrote <= 4 && k.wrote+len(b) > 4 {
		k.kind = b[4-k.wrote]
	}
	k.wrote += len(b)
	return k.ResponseWriter.Write(b)
}

// countingListener counts accepted connections and, while tracing, the
// bytes that cross each agent socket.
type countingListener struct {
	net.Listener
	p *probe
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.p.dials.Add(1)
	return countingConn{Conn: c, p: l.p}, nil
}

type countingConn struct {
	net.Conn
	p *probe
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.p.t.enabled() {
		c.p.wireBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.p.t.enabled() {
		c.p.wireBytes.Add(int64(n))
	}
	return n, err
}

// traceFS wraps the journals' filesystem, timing writes and fsyncs per
// journal file.
type traceFS struct {
	store.FS
	p *probe
}

func (f traceFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: file, p: f.p, layer: fsLayerOf(name)}, nil
}

type traceFile struct {
	store.File
	p     *probe
	layer int
}

func (f *traceFile) Write(b []byte) (int, error) {
	t := f.p.t
	id, start := t.begin()
	n, err := f.File.Write(b)
	if id != 0 {
		t.end(id, t.cur.Load(), fsLayerNames[f.layer], start)
		f.p.writeBytes[f.layer].Add(int64(n))
	}
	return n, err
}

func (f *traceFile) Sync() error {
	t := f.p.t
	id, start := t.begin()
	err := f.File.Sync()
	if id != 0 {
		t.end(id, t.cur.Load(), fsLayerNames[f.layer], start)
		f.p.fsyncs[f.layer].Add(1)
		f.p.observe(f.p.fsyncMS[fsLayerNames[f.layer]], float64(t.now()-start)/1e6)
	}
	return err
}

// traceTransport times cluster RPCs and counts replication bytes.
type traceTransport struct {
	base cluster.Transport
	p    *probe
}

func (tt traceTransport) Call(ctx context.Context, to string, req cluster.Request) (cluster.Reply, error) {
	t := tt.p.t
	id, start := t.begin()
	rep, err := tt.base.Call(ctx, to, req)
	if id != 0 {
		t.end(id, t.cur.Load(), layerCluster, start)
		tt.p.observe(&tt.p.rpcUS, float64(t.now()-start)/1e3)
		if req.Type == cluster.MsgReplicate {
			tt.p.replBytes.Add(int64(len(req.Body) + len(rep.Body)))
		}
	}
	return rep, err
}
