package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a: the union 10..60 counts once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 130}, // runs past the parent: clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 15, EndNS: 20},
		{ID: 6, Parent: 0, Name: "other", StartNS: 200, EndNS: 250},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50 - 10, // covered: 10..60 and 90..100
		2: 30 - 5,
		3: 30,
		4: 40,
		5: 5,
		6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	by := selfByName(spans)
	if by["op"] != 40 || by["leaf"] != 5 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderNilIsOffAndLimitDrops(t *testing.T) {
	var off *recorder
	if id := off.start(0, "x"); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	off.end(0, nil) // must not panic

	r := newRecorder(2)
	a := r.start(0, "req")
	b := r.start(0, "req")
	c := r.start(0, "req")
	if a == 0 || b == 0 || c != 0 {
		t.Fatalf("limit 2: got ids %d %d %d", a, b, c)
	}
	child := r.start(a, "child")
	r.end(child, map[string]any{"k": 1})
	r.end(a, nil)
	r.end(c, nil) // refused span: no-op

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans   []span         `json:"spans"`
		Dropped map[string]int `json:"dropped_over_limit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 3 || doc.Dropped["req"] != 1 {
		t.Errorf("wrote %d spans, dropped %v", len(doc.Spans), doc.Dropped)
	}
	if doc.Spans[2].Parent != a || doc.Spans[2].EndNS < doc.Spans[2].StartNS {
		t.Errorf("child span malformed: %+v", doc.Spans[2])
	}
}
