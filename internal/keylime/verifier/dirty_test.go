package verifier_test

// Tests for incremental state export (dirty-row tracking), the shared
// row flush and restore (Persister), and the lenient restore path — the
// verifier-side half of the crash-safe durability layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/policy"
)

func TestExportDirtyTracksMutations(t *testing.T) {
	s := newStack(t, nil)
	writeExec(t, s.m, "/usr/bin/tool", "ok")
	addAgent(t, s, policyFromMachine(t, s.m))

	// Enrollment marks the agent dirty.
	changed, removed, err := s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 1 || changed[0].AgentID != s.m.UUID() || len(removed) != 0 {
		t.Fatalf("after enroll: changed=%v removed=%v", changed, removed)
	}

	// Draining is one-shot: no new mutation, nothing to export.
	changed, removed, err = s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 0 || len(removed) != 0 {
		t.Fatalf("no mutations since drain: changed=%v removed=%v", changed, removed)
	}

	// A completed attestation round re-marks the agent, and the exported
	// row carries the advanced frontier.
	exec(t, s.m, "/usr/bin/tool")
	res := attest(t, s)
	if res.Failure != nil {
		t.Fatalf("attestation failed: %+v", res.Failure)
	}
	changed, _, err = s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 1 || changed[0].Attestations != 1 {
		t.Fatalf("after round: changed=%+v", changed)
	}
	if changed[0].NextOffset == 0 {
		t.Fatal("exported row did not carry the advanced frontier")
	}

	// Removal surfaces as a removed ID so the persistence layer can delete
	// the row instead of leaving a ghost agent behind.
	if err := s.v.RemoveAgent(s.m.UUID()); err != nil {
		t.Fatalf("RemoveAgent: %v", err)
	}
	changed, removed, err = s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 0 || len(removed) != 1 || removed[0] != s.m.UUID() {
		t.Fatalf("after removal: changed=%v removed=%v", changed, removed)
	}
}

func TestExportDirtyMarksFailureAndResume(t *testing.T) {
	s := newStack(t, nil)
	writeExec(t, s.m, "/usr/bin/tool", "ok")
	addAgent(t, s, policyFromMachine(t, s.m))
	if _, _, err := s.v.ExportDirty(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A policy violation (failure path) marks the agent dirty.
	writeExec(t, s.m, "/usr/bin/rogue", "evil")
	exec(t, s.m, "/usr/bin/rogue")
	res := attest(t, s)
	if res.Failure == nil {
		t.Fatal("expected a policy violation")
	}
	changed, _, err := s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 1 || !changed[0].Halted || len(changed[0].Failures) != 1 {
		t.Fatalf("after failure: changed=%+v", changed)
	}

	// Resume marks it again so the cleared halt is persisted too.
	if err := s.v.Resume(s.m.UUID()); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	changed, _, err = s.v.ExportDirty()
	if err != nil {
		t.Fatalf("ExportDirty: %v", err)
	}
	if len(changed) != 1 || changed[0].Halted {
		t.Fatalf("after resume: changed=%+v", changed)
	}
}

func TestRestoreStateLenientSkipsCorruptRows(t *testing.T) {
	s := newStack(t, nil)
	writeExec(t, s.m, "/usr/bin/tool", "ok")
	addAgent(t, s, policyFromMachine(t, s.m))
	exec(t, s.m, "/usr/bin/tool")
	if res := attest(t, s); res.Failure != nil {
		t.Fatalf("baseline round: %+v", res.Failure)
	}
	snap, err := s.v.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	good := snap.Agents[0]

	// A snapshot holding one intact row, one corrupt row, and a duplicate.
	mixed := verifier.Snapshot{Agents: []verifier.AgentState{
		{AgentID: "corrupt-ak", AKPub: "%%%", PrefixAggregate: "00"},
		good,
		good, // duplicate of the intact row
	}}

	// Strict restore aborts on the first bad row.
	if err := verifier.New(s.regSrv.URL).RestoreState(mixed); err == nil {
		t.Fatal("strict RestoreState accepted a corrupt row")
	}

	// Lenient restore keeps the intact row and reports the other two.
	v2 := verifier.New(s.regSrv.URL)
	skipped, err := v2.RestoreStateLenient(mixed)
	if err != nil {
		t.Fatalf("RestoreStateLenient: %v", err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want 2 rows", skipped)
	}
	if skipped[0].AgentID != "corrupt-ak" || skipped[1].AgentID != good.AgentID {
		t.Fatalf("skipped = %v", skipped)
	}
	st, err := v2.Status(good.AgentID)
	if err != nil {
		t.Fatalf("Status after lenient restore: %v", err)
	}
	if st.Attestations != 1 {
		t.Fatalf("restored status = %+v", st)
	}

	// The survivor resumes attestation from its persisted frontier.
	res, err := v2.AttestOnce(context.Background(), good.AgentID)
	if err != nil || res.Failure != nil {
		t.Fatalf("round after lenient restore = %+v, %v", res, err)
	}
}

func TestRestoreStateLenientRequiresEmptyVerifier(t *testing.T) {
	s := newStack(t, nil)
	addAgent(t, s, policy.New())
	snap, err := s.v.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if _, err := s.v.RestoreStateLenient(snap); err == nil {
		t.Fatal("lenient restore into non-empty verifier succeeded")
	}
}

// TestPersisterRetriesFailedFlush: a failed batch carrying both a changed
// row and a removal leaves both IDs dirty, so the next flush makes both
// durable even though nothing changed in between.
func TestPersisterRetriesFailedFlush(t *testing.T) {
	s := newStack(t, nil)
	writeExec(t, s.m, "/usr/bin/tool", "ok")
	addAgent(t, s, policyFromMachine(t, s.m))
	const gone = "agent-to-remove"
	if err := s.v.AddAgentWithAK(gone, s.agSrv.URL, nil, policy.New()); err != nil {
		t.Fatal(err)
	}
	ffs := faultinject.NewFaultFS()
	st, err := store.Open(t.TempDir(), store.WithStoreFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	const prefix = "a/"
	p := verifier.NewPersister(s.v, st, prefix)
	if n, err := p.Flush(); err != nil || n != 2 {
		t.Fatalf("enrollment flush = %d rows, %v; want 2", n, err)
	}

	exec(t, s.m, "/usr/bin/tool")
	if res := attest(t, s); res.Failure != nil {
		t.Fatalf("attestation failed: %+v", res.Failure)
	}
	if err := s.v.RemoveAgent(gone); err != nil {
		t.Fatal(err)
	}
	ffs.FailWriteN = ffs.Counters().Writes + 1
	if _, err := p.Flush(); err == nil {
		t.Fatal("flush succeeded through an injected write fault")
	}
	ffs.FailWriteN = 0

	if n, err := p.Flush(); err != nil || n != 2 {
		t.Fatalf("retry flush = %d rows, %v; want the changed row and the removal", n, err)
	}
	want, err := s.v.ExportAgents([]string{s.m.UUID()})
	if err != nil || len(want) != 1 {
		t.Fatalf("ExportAgents: %v", err)
	}
	b, err := json.Marshal(want[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get(prefix + s.m.UUID()); !bytes.Equal(got, b) {
		t.Fatal("changed row is stale after the retry flush")
	}
	if _, ok := st.Get(prefix + gone); ok {
		t.Fatal("removed agent's row survived the retry flush")
	}
	if ps := p.Stats(); ps.Flushes != 3 || ps.Errors != 1 || ps.LastRows != 2 {
		t.Fatalf("stats = %+v, want 3 flushes, 1 error, 2 rows last", ps)
	}

	// The durable rows restore the surviving agent at its frontier.
	v2 := verifier.New(s.regSrv.URL)
	if skipped, err := verifier.NewPersister(v2, st, prefix).Restore(false); err != nil || len(skipped) != 0 {
		t.Fatalf("Restore = %v, %v", skipped, err)
	}
	if got, err := v2.Status(s.m.UUID()); err != nil || got.Attestations != 1 || v2.AgentCount() != 1 {
		t.Fatalf("restored %d agents, status %+v, %v", v2.AgentCount(), got, err)
	}
}

// TestPersisterRestoreStrictness: a strict restore refuses an undecodable
// row; a lenient one skips and reports it and restores the rest. Keys
// outside the prefix are not agent rows.
func TestPersisterRestoreStrictness(t *testing.T) {
	s := newStack(t, nil)
	addAgent(t, s, policy.New())
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, err := verifier.NewPersister(s.v, st, "a/").Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a/garbled", []byte("{")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("cl/term", []byte("{")); err != nil {
		t.Fatal(err)
	}

	if _, err := verifier.NewPersister(verifier.New(""), st, "a/").Restore(false); err == nil {
		t.Fatal("strict restore accepted an undecodable row")
	}
	v2 := verifier.New("")
	skipped, err := verifier.NewPersister(v2, st, "a/").Restore(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0].AgentID != "garbled" {
		t.Fatalf("skipped = %v, want the garbled row", skipped)
	}
	if ids := v2.AgentIDs(); len(ids) != 1 || ids[0] != s.m.UUID() {
		t.Fatalf("restored %v", ids)
	}
}
