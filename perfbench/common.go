package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/keylime/custody"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/store"
)

// agentIDs derives n distinct UUID-shaped agent IDs from the seed.
func agentIDs(rng *rand.Rand, prefix string, n int) []string {
	ids := make([]string, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; {
		id := fmt.Sprintf("%s-%08x-%04x-%04x-%012x", prefix, rng.Uint32(), rng.Uint32()&0xffff,
			rng.Uint32()&0xffff, rng.Uint64()&0xffffffffffff)
		if seen[id] {
			continue
		}
		seen[id] = true
		ids[i] = id
		i++
	}
	return ids
}

// execContent is a seeded ELF-looking file body; distinct bodies give
// distinct IMA digests.
func execContent(rng *rand.Rand, name string) []byte {
	return []byte(fmt.Sprintf("\x7fELF %s %016x%016x", name, rng.Uint64(), rng.Uint64()))
}

// custodyWalk verifies one verifier directory's audit journal and outbox
// offline, with trust anchors replayed from the keyring journal file.
// It returns the audit records walked and the walk's wall time.
func custodyWalk(out *outcome, label, dir, keyringPath string) (int, time.Duration) {
	start := time.Now()
	kr, err := dsse.LoadKeyringFile(store.OS(), keyringPath)
	if err != nil {
		out.check("custody "+label, false, "loading keyring: %v", err)
		return 0, time.Since(start)
	}
	rep, err := custody.Verify(custody.Config{
		AuditLog: filepath.Join(dir, auditFile),
		Outbox:   filepath.Join(dir, outboxFile),
		Keyring:  kr,
	})
	d := time.Since(start)
	switch {
	case err != nil:
		out.check("custody "+label, false, "walk: %v", err)
		return 0, d
	case !rep.OK():
		out.check("custody "+label, false, "%s", strings.TrimSpace(rep.Summary()))
		return rep.Audit.Records, d
	case rep.Audit.VerifiedCheckpoints == 0:
		out.check("custody "+label, false, "no verified checkpoint in %d records", rep.Audit.Records)
		return rep.Audit.Records, d
	}
	out.check("custody "+label, true, "%d audit records, %d checkpoints verified, outbox %d records",
		rep.Audit.Records, rep.Audit.VerifiedCheckpoints, rep.Outbox.Records)
	return rep.Audit.Records, d
}

// storeRows loads a state store directory read-only.
func storeRows(dir string) (map[string][]byte, error) {
	return store.LoadState(store.OS(), dir)
}

// rowsCheck asserts the state store holds exactly one row per agent.
func rowsCheck(out *outcome, rows map[string][]byte, prefix string, ids []string) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[prefix+id] = true
	}
	extra, missing := 0, 0
	for k := range rows {
		if strings.HasPrefix(k, prefix) && !want[k] {
			extra++
		}
	}
	for k := range want {
		if _, ok := rows[k]; !ok {
			missing++
		}
	}
	out.check("one state row per agent", extra == 0 && missing == 0,
		"%d agents: %d missing rows, %d unexpected rows", len(ids), missing, extra)
}
