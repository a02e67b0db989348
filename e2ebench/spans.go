package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call, recorded by the benchmark around a layer's public
// entry point. Spans are held in memory and written once when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`  // ns since the run started
	End    int64  `json:"end"`    // ns since the run started
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Batch  int    `json:"batch"`  // stream batch index, -1 for a whole pass
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its index, for use as a parent.
func (l *spanLog) add(name string, start, end time.Time, parent, batch int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
		Parent: parent, Batch: batch,
	})
	return len(l.spans) - 1
}

// finish sets the end of span i.
func (l *spanLog) finish(i int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = end.Sub(l.origin).Nanoseconds()
}

// write stores the spans and the run's provenance as one JSON file.
func (l *spanLog) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
