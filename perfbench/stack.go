package main

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/keylime/audit"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/httppool"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/keylime/webhook"
	"repro/internal/machine"
	"repro/internal/tpm"
)

// File names inside one verifier's state directory.
const (
	stateDir    = "state"
	auditFile   = "audit.wal"
	outboxFile  = "outbox.wal"
	keyringFile = "keyring.wal"
)

// Shipped defaults of cmd/keylime-verifier that the benchmark reproduces.
const (
	persistBatch    = 256
	persistMaxDelay = 2 * time.Millisecond
	sessionEvery    = 16
	sessionTTL      = 10 * time.Minute
)

// webhookSecret keys the HMAC on revocation deliveries.
var webhookSecret = []byte("perfbench-webhook-secret")

// stackOpts configures one verifier process of the shipped configuration.
type stackOpts struct {
	dir               string
	workers           int
	continueOnFailure bool
	// keyring is shared by every node of a cluster; nil opens the
	// stack's own journaled keyring in dir.
	keyring  *dsse.Keyring
	receiver string
	p        *probe // nil: no wrappers (the untraced run)
}

// stack is one verifier process as cmd/keylime-verifier wires it in
// journal mode: counting filesystem, journaled keyring, DSSE-sealed audit
// journal with batched appends, outbox-backed webhook notifier, journaled
// state store.
type stack struct {
	dir   string
	iofs  *store.CountingFS
	kr    *dsse.Keyring
	ownKR bool
	jl    *audit.JournalLog
	ob    *webhook.Outbox
	nt    *webhook.Notifier
	st    *store.Store
	v     *verifier.Verifier
	p     *probe
	// openStore is how long the state store took to open (recovery).
	openStore time.Duration
	closers   []func()
}

func journalOpts() []store.JournalOption {
	return []store.JournalOption{store.WithGroupCommit(persistMaxDelay, persistBatch)}
}

// openKeyring opens (or creates) a journaled keyring with a signing key.
func openKeyring(fsys store.FS, path string) (*dsse.Keyring, error) {
	kr, err := dsse.OpenKeyring(fsys, path, journalOpts()...)
	if err != nil {
		return nil, err
	}
	if !kr.CanSign() {
		if _, err := kr.Rotate(); err != nil {
			_ = kr.Close()
			return nil, fmt.Errorf("rotating keyring: %w", err)
		}
	}
	return kr, nil
}

func fsFor(p *probe) *store.CountingFS {
	if p == nil {
		return store.NewCountingFS(store.OS())
	}
	return store.NewCountingFS(traceFS{FS: store.OS(), p: p})
}

// openStack opens every journal and builds the verifier. On error the
// parts already opened are closed.
func openStack(o stackOpts) (_ *stack, err error) {
	s := &stack{dir: o.dir, iofs: fsFor(o.p), p: o.p}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err = os.MkdirAll(o.dir, 0o700); err != nil {
		return nil, fmt.Errorf("creating %s: %w", o.dir, err)
	}
	s.kr = o.keyring
	if s.kr == nil {
		if s.kr, err = openKeyring(s.iofs, filepath.Join(o.dir, keyringFile)); err != nil {
			return nil, err
		}
		kr := s.kr
		s.closers = append(s.closers, func() { _ = kr.Close() })
	}
	if s.jl, err = audit.OpenJournal(s.iofs, filepath.Join(o.dir, auditFile), journalOpts()...); err != nil {
		return nil, fmt.Errorf("opening audit journal: %w", err)
	}
	s.closers = append(s.closers, func() { _ = s.jl.Close() })
	s.jl.SealCheckpoints(s.kr)
	if s.ob, err = webhook.OpenOutbox(s.iofs, filepath.Join(o.dir, outboxFile), journalOpts()...); err != nil {
		return nil, fmt.Errorf("opening outbox: %w", err)
	}
	s.closers = append(s.closers, func() { _ = s.ob.Close() })
	s.nt = webhook.New(webhook.Config{
		Endpoints: []string{o.receiver},
		Secret:    webhookSecret,
		Keyring:   s.kr,
		Outbox:    s.ob,
	})
	s.closers = append(s.closers, s.nt.Close)
	storeStart := time.Now()
	if s.st, err = openStore(filepath.Join(o.dir, stateDir), s.iofs); err != nil {
		return nil, err
	}
	s.openStore = time.Since(storeStart)
	s.closers = append(s.closers, func() { _ = s.st.Close() })
	s.v = newVerifier(o, s.jl, s.nt)
	s.closers = append(s.closers, s.v.Close)
	return s, nil
}

func openStore(dir string, fsys store.FS) (*store.Store, error) {
	st, err := store.Open(dir, store.WithStoreFS(fsys))
	if err != nil {
		return nil, fmt.Errorf("opening state store %s: %w", dir, err)
	}
	return st, nil
}

// newVerifier applies the flag defaults of cmd/keylime-verifier, with
// the poll concurrency set to the host's processor count.
func newVerifier(o stackOpts, jl *audit.JournalLog, nt *webhook.Notifier) *verifier.Verifier {
	opts := []verifier.Option{
		verifier.WithPollInterval(10 * time.Second),
		verifier.WithContinueOnFailure(o.continueOnFailure),
		verifier.WithRetryPolicy(verifier.RetryPolicy{
			MaxAttempts:    3,
			InitialBackoff: 200 * time.Millisecond,
			MaxBackoff:     5 * time.Second,
			RequestTimeout: 30 * time.Second,
		}),
		verifier.WithCommsFaultBudget(3),
		verifier.WithCircuitBreaker(verifier.BreakerConfig{
			Threshold:       5,
			InitialInterval: time.Minute,
			MaxInterval:     15 * time.Minute,
		}),
		verifier.WithPollConcurrency(o.workers),
		verifier.WithVerifyWorkers(0),
		verifier.WithSessionPolicy(sessionEvery, sessionTTL),
		verifier.WithBinaryWireFormat(true),
		verifier.WithBatchVerify(0),
		verifier.WithAuditLog(jl.Log),
		verifier.WithAuditBatch(true),
		verifier.WithRevocationHandler(nt.Handler()),
	}
	if o.p != nil {
		// The verifier's own default client, with the timing wrapper.
		opts = append(opts, verifier.WithHTTPClient(&http.Client{
			Transport: roundTripper{base: httppool.NewTransport(o.workers), p: o.p},
		}))
	}
	return verifier.New("", opts...)
}

// close releases everything in reverse open order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// persist is the journal-mode persist step of cmd/keylime-verifier:
// ExportDirty, json.Marshal per row, one Store.PutBatch. It returns the
// exported rows so the caller can read verdicts from what was made
// durable.
func (s *stack) persist(t *tracer) ([]verifier.AgentState, error) {
	var (
		changed []verifier.AgentState
		removed []string
		err     error
		bytes   int
	)
	exportD := t.phase(layerPersist, func() { changed, removed, err = s.v.ExportDirty() })
	if err != nil {
		return nil, fmt.Errorf("exporting dirty rows: %w", err)
	}
	batch := make([]store.KV, 0, len(changed)+len(removed))
	encodeD := t.phase(layerPersist, func() {
		for _, as := range changed {
			var data []byte
			if data, err = json.Marshal(as); err != nil {
				return
			}
			bytes += len(data)
			batch = append(batch, store.KV{Key: as.AgentID, Value: data})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("encoding rows: %w", err)
	}
	for _, id := range removed {
		batch = append(batch, store.KV{Key: id, Delete: true})
	}
	if len(batch) == 0 {
		return changed, nil
	}
	putD := t.phase(layerStore, func() { err = s.st.PutBatch(batch) })
	if err != nil {
		return nil, fmt.Errorf("journaling %d rows: %w", len(batch), err)
	}
	if t.enabled() {
		p := s.p
		p.mu.Lock()
		p.exportMS.add(float64(exportD) / 1e6)
		p.encodeMS.add(float64(encodeD) / 1e6)
		p.putMS.add(float64(putD) / 1e6)
		if len(changed) > 0 {
			p.rowBytes.add(float64(bytes) / float64(len(changed)))
		}
		p.mu.Unlock()
	}
	return changed, nil
}

// newMachine manufactures a simulated machine and its attestation key.
// The 1024-bit EK keeps manufacturing quick; it is never timed.
func newMachine(ca *tpm.ManufacturerCA) (*machine.Machine, []byte, error) {
	m, err := machine.New(ca, machine.WithTPMOptions(tpm.WithEKBits(1024)))
	if err != nil {
		return nil, nil, fmt.Errorf("manufacturing machine: %w", err)
	}
	ak, err := m.TPM().CreateAK()
	if err != nil {
		return nil, nil, fmt.Errorf("creating AK: %w", err)
	}
	return m, ak, nil
}

func newCA() (*tpm.ManufacturerCA, error) {
	ca, err := tpm.NewManufacturerCA(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("manufacturer CA: %w", err)
	}
	return ca, nil
}

// server is an HTTP server on its own 127.0.0.1 listener. Given a probe,
// the handler is an agent's: its connections and bytes are counted and
// each request is timed.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler, p *probe) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	if p != nil {
		ln = countingListener{Listener: ln, p: p}
		h = agentMiddleware(h, p)
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// receiver is the in-process revocation endpoint. It accepts only
// deliveries whose HMAC and DSSE seal verify, and deduplicates the
// at-least-once stream by DedupKey.
type receiver struct {
	kr *dsse.Keyring

	mu     sync.Mutex
	seen   map[string]bool
	first  map[[2]string]time.Time // (agent, path) → first accepted delivery
	dups   int
	forged int
	// lagMS is each accepted delivery's arrival minus the failure time
	// the notification carries (the round that produced the verdict).
	lagMS sample
}

func newReceiver(kr *dsse.Keyring) *receiver {
	return &receiver{kr: kr, seen: make(map[string]bool), first: make(map[[2]string]time.Time)}
}

func (rc *receiver) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	at := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	note, err := rc.open(body, r.Header.Get(webhook.SignatureHeader))
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err != nil {
		rc.forged++
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	if rc.seen[note.DedupKey] {
		rc.dups++
		return
	}
	rc.seen[note.DedupKey] = true
	key := [2]string{note.AgentID, note.Path}
	if _, ok := rc.first[key]; !ok {
		rc.first[key] = at
	}
	rc.lagMS.add(float64(at.Sub(note.Time)) / 1e6)
}

func (rc *receiver) open(body []byte, sig string) (webhook.Notification, error) {
	var note webhook.Notification
	if !webhook.VerifySignature(webhookSecret, body, sig) {
		return note, errors.New("bad HMAC")
	}
	env, err := dsse.Decode(body)
	if err != nil {
		return note, fmt.Errorf("decoding envelope: %w", err)
	}
	payload, err := rc.kr.Verify(env, webhook.RevocationPayloadType)
	if err != nil {
		return note, fmt.Errorf("seal: %w", err)
	}
	if err := json.Unmarshal(payload, &note); err != nil {
		return note, fmt.Errorf("decoding notification: %w", err)
	}
	return note, nil
}

// delivered returns the first-arrival time for (agent, path).
func (rc *receiver) delivered(agent, path string) (time.Time, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	t, ok := rc.first[[2]string{agent, path}]
	return t, ok
}

// waitFor polls cond until it holds or the timeout passes; the caller's
// checks report what did not happen.
func waitFor(timeout time.Duration, cond func() bool) {
	for deadline := time.Now().Add(timeout); !cond() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}
