package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Two overlapping children cover [10,60); a third covers
		// [70,80); one spills past the parent's end and is clipped.
		{ID: 2, Parent: 1, Name: "task", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "task", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "task", Start: 70, End: 80},
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120},
		// A grandchild takes from its parent, not from the pass.
		{ID: 6, Parent: 2, Name: "launch", Start: 20, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass":   100 - 50 - 10 - 5,
		"task":   (40 - 25) + 30 + 10,
		"late":   25,
		"launch": 25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id, _ := tr.begin("x", 0, "")
	tr.end(id)
	if tr.record("y", 0, "", time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestTracerParentLinks(t *testing.T) {
	tr := newTracer()
	p, _ := tr.begin("parent", 0, "job")
	c, _ := tr.begin("child", p, "job")
	tr.end(c)
	tr.end(p)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Req != "job" || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}
