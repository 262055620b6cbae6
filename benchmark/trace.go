package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id;
// Parent names the span that caused this one (0 for a root).
//
// The traced run sits outside the program, so it sees two kinds of
// child: a nested child ran inside its parent's interval (a shard
// request inside the router's handler), a replayed child is the same
// work done again on its own after the parent returned (Stmt.Query
// called directly after the handler that calls it). Nested children may
// overlap each other; replayed ones run one after another.
type span struct {
	ID       int    `json:"id"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
	Kind     string `json:"op_kind,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends. Shard middleware
// records from server goroutines, hence the lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Time, replayed bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Op: op, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Replayed: replayed,
	})
	return id
}

// reserve hands out the id of a span whose end is not known yet, so its
// children can name it as parent; finish fills it in.
func (r *recorder) reserve(op, parent int, name string) int {
	return r.add(op, parent, name, r.epoch, r.epoch, false)
}

func (r *recorder) finish(id int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].StartNS = start.Sub(r.epoch).Nanoseconds()
	r.spans[id-1].EndNS = end.Sub(r.epoch).Nanoseconds()
}

// setKind labels a span with the kind of op it belongs to.
func (r *recorder) setKind(id int, kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Kind = kind
}

// timed runs f inside a span.
func (r *recorder) timed(op, parent int, name string, replayed bool, f func()) (id int, d time.Duration) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return r.add(op, parent, name, t0, t1, replayed), t1.Sub(t0)
}

// writeJSONLines writes every span as one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionLength is the total length covered by the intervals, overlaps
// counted once, after clipping each to [lo, hi].
func unionLength(intervals [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range intervals {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part its children account
// for: the union of its nested children's intervals, plus the durations
// of its replayed children. It never goes below zero — a replay can run
// slower than the original did.
func selfTime(parent span, children []span) float64 {
	var nested [][2]int64
	var replayed float64
	for _, c := range children {
		if c.Replayed {
			replayed += c.dur()
		} else {
			nested = append(nested, [2]int64{c.StartNS, c.EndNS})
		}
	}
	self := parent.dur() - float64(unionLength(nested, parent.StartNS, parent.EndNS)) - replayed
	return max(self, 0)
}

// selfTimes computes every span's self time, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(s, children[s.ID])
	}
	return out
}
