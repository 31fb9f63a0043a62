package main

import (
	"testing"
	"time"
)

func TestCoveredUnionsOverlapsAndClips(t *testing.T) {
	kids := []span{
		{start: 10, end: 30},
		{start: 20, end: 50}, // overlaps the first: union 10..50
		{start: 60, end: 70},
		{start: 90, end: 120},  // runs past the parent: clipped at 100
		{start: 200, end: 300}, // outside the parent entirely
	}
	if got := covered(0, 100, kids); got != 60 {
		t.Fatalf("covered = %d, want 60 (40 + 10 + 10)", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []span{
		{id: 1, layer: layerVerifier, start: 0, end: 1000},
		// Two concurrent round trips under the sweep.
		{id: 2, parent: 1, layer: layerTransport, start: 100, end: 500},
		{id: 3, parent: 1, layer: layerTransport, start: 300, end: 700},
		// The agent's handling of round trip 2.
		{id: 4, parent: 2, layer: layerAgent, start: 150, end: 350},
		// A journal fsync under the sweep, overlapping round trip 3.
		{id: 5, parent: 1, layer: layerAudit, start: 650, end: 800},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		layerVerifier:  1000 - 700, // children cover 100..800
		layerTransport: (400 - 200) + 400,
		layerAgent:     200,
		layerAudit:     150,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, got[l], w)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	ran := false
	nilTracer.phase(layerVerifier, func() { ran = true })
	if !ran || nilTracer.enabled() {
		t.Fatal("nil tracer must run the phase and stay disabled")
	}
	tr := newTracer()
	tr.phase(layerVerifier, func() {})
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("tracer off recorded %d spans", n)
	}
	tr.on.Store(true)
	tr.phase(layerVerifier, func() { tr.phase(layerPersist, func() {}) })
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].layer != layerPersist || spans[0].parent != spans[1].id {
		t.Fatalf("nested phases = %+v, want persist under verifier", spans)
	}
}
