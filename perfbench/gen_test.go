package main

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
)

func TestScheduleIsSeededAndOpenLoop(t *testing.T) {
	a := schedule(rand.New(rand.NewPCG(7, 1)), 20, tamperMachines, tamperPolicyEntries)
	b := schedule(rand.New(rand.NewPCG(7, 1)), 20, tamperMachines, tamperPolicyEntries)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	attacks := 0
	seen := map[[2]any]bool{}
	for i, ev := range a {
		if i > 0 && ev.due < a[i-1].due {
			t.Fatalf("event %d due before its predecessor", i)
		}
		if ev.attack {
			attacks++
		}
		k := [2]any{ev.machine, ev.path}
		if seen[k] {
			t.Fatalf("binary %s on machine %d scheduled twice: it must be new to the log", ev.path, ev.machine)
		}
		seen[k] = true
	}
	// 50 benign and 2.5 attack executions a second for 20 s.
	if n := len(a); n != 1050 {
		t.Fatalf("%d events in 20 s, want 1050", n)
	}
	if attacks != 50 {
		t.Fatalf("%d attacks in 20 s, want 50", attacks)
	}
	if last := a[len(a)-1].due; last >= 20*time.Second {
		t.Fatalf("last event due at %v, after the phase", last)
	}
}

// Lateness is measured from when an event was due, so a generator that
// starts behind schedule reports the wait instead of hiding it.
func TestGeneratorReportsLateness(t *testing.T) {
	ca, err := newCA()
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := newMachine(ca)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	evs := []genEvent{
		{due: 0, attack: true, path: "/usr/bin/implant-00000", content: execContent(rng, "a")},
		{due: 400 * time.Millisecond, attack: true, path: "/usr/bin/implant-00001", content: execContent(rng, "b")},
	}
	g := &generator{ms: []*machine.Machine{m}, attacks: map[string]attackRec{}}
	start := time.Now().Add(-200 * time.Millisecond) // already 200 ms behind
	g.run(context.Background(), start, evs)
	if g.err != nil {
		t.Fatal(g.err)
	}
	if g.lateMS.n() != 2 || len(g.attacks) != 2 {
		t.Fatalf("ran %d events, recorded %d attacks; want 2 and 2", g.lateMS.n(), len(g.attacks))
	}
	first, second := g.lateMS.vals[0], g.lateMS.vals[1]
	if first < 200 {
		t.Fatalf("first event late by %.1f ms, want at least 200", first)
	}
	if second > 100 {
		t.Fatalf("second event, due in the future, late by %.1f ms", second)
	}
}
