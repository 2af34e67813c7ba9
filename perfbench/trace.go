package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Op is shared by every span
// of one benchmark operation; Parent is the index of the enclosing span, -1
// for an operation's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span belongs to: the part of its name before the
// first dot ("bench.build_rt" → "bench").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
	ops   atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp mints the identifier shared by the spans of one operation.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return r.ops.Add(1)
}

// begin opens a span under parent and returns its index.
func (r *recorder) begin(op int64, parent int, name string) int {
	if r == nil {
		return -1
	}
	return r.add(op, parent, name, time.Since(r.epoch), -1)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds are already known (a negative end leaves
// it open for end) and returns its index.
func (r *recorder) add(op int64, parent int, name string, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans), Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	return len(r.spans) - 1
}

// at converts a wall-clock instant into the recorder's time base.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, the part of each span's interval that none
// of its children cover. Overlapping children (parallel calls under one
// parent) are merged first, so overlap is not subtracted twice, and children
// are clipped to their parent. Spans never closed are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		var ivs [][2]int64
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
