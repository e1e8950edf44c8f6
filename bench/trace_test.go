package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10..50; a third covers 60..70;
		// a fourth starts inside the parent and ends after it.
		{ID: 2, Parent: 1, Name: "roundtrip", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "roundtrip", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "verify", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 1, Name: "late", Start: ms(90), End: ms(120)},
		// A grandchild takes from its parent, not from the root.
		{ID: 6, Parent: 2, Name: "core", Start: ms(15), End: ms(25)},
		// A span that never ended is left out.
		{ID: 7, Parent: 0, Name: "open", Start: ms(5), End: 0},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"request":   {Count: 1, TotalMs: 100, SelfMs: 100 - 40 - 10 - 10},
		"roundtrip": {Count: 2, TotalMs: 50, SelfMs: 50 - 10},
		"verify":    {Count: 1, TotalMs: 10, SelfMs: 10},
		"late":      {Count: 1, TotalMs: 30, SelfMs: 30},
		"core":      {Count: 1, TotalMs: 10, SelfMs: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes has %d names, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatalf("nil recorder returned id %d, spans %v", id, r.snapshot())
	}
	live := newRecorder()
	a := live.begin("a", 0, 7)
	b := live.begin("b", a, 7)
	live.end(b)
	live.end(a)
	s := live.snapshot()
	if len(s) != 2 || s[1].Parent != a || s[1].Op != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}
