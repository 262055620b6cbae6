package router

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
)

// Stream is one shard's ranked row stream. The rank-aware engine's core
// contract — results arrive in non-increasing score order, cut off at
// depth k — makes a stream's fetched prefix a certificate about its
// tail: every unfetched row scores at most the last fetched score. The
// threshold merge leans entirely on that bound.
//
// Fetch grows the fetched prefix to at least n rows (all remaining rows
// when n <= 0 or when fewer than n exist) and returns the entire prefix
// fetched so far as parallel row/score slices, plus whether the stream
// is exhausted (no rows exist beyond the returned prefix). Each returned
// prefix must extend the one returned before it: the merge tracks its
// place in a stream by position, so a re-fetched prefix that differs
// would repeat or skip rows. Fetch is called from multiple goroutines
// for different streams but never concurrently for one stream.
type Stream interface {
	Fetch(n int) (rows [][]interface{}, scores []float64, exhausted bool, err error)
}

// Merged is one page of a threshold top-k merge over shard streams.
type Merged struct {
	Rows   [][]interface{}
	Scores []float64
	// Origin[i] is the index of the stream that produced row i.
	Origin []int
	// Exhausted reports whether every stream ran dry before the page was
	// filled (the merged stream is complete; further pages are empty).
	Exhausted bool
	// Pruned lists streams cut off by the threshold bound: their tails
	// were never fetched because the last emitted result already
	// dominated every score they could still produce.
	Pruned []int
	// Refills counts follow-up fetches beyond each stream's initial one,
	// attributed to this page (a Merger reports per-page deltas).
	Refills int
}

// cursor tracks the merge's view of one stream: the fetched prefix and
// how much of it has been consumed.
type cursor struct {
	stream    Stream
	rows      [][]interface{}
	scores    []float64
	pos       int
	exhausted bool
	fetched   bool
	refills   int
}

// bound returns an upper bound on the score of the cursor's next
// unconsumed row (known head, last fetched score for unfetched tails,
// -Inf when dry).
func (c *cursor) bound() float64 {
	switch {
	case c.pos < len(c.scores):
		return c.scores[c.pos]
	case c.exhausted:
		return math.Inf(-1)
	case len(c.scores) > 0:
		return c.scores[len(c.scores)-1]
	default:
		return math.Inf(1)
	}
}

// fetch grows the cursor's prefix to at least n rows, verifying the
// shard honors the ranked contract (non-increasing scores, monotone
// prefix growth) so a misbehaving backend surfaces as an error instead
// of a silently wrong merge.
func (c *cursor) fetch(n int) error {
	prev := len(c.scores)
	rows, scores, exhausted, err := c.stream.Fetch(n)
	if err != nil {
		return err
	}
	if len(rows) != len(scores) {
		return fmt.Errorf("router: stream returned %d rows but %d scores", len(rows), len(scores))
	}
	if len(scores) < prev {
		return fmt.Errorf("router: stream prefix shrank from %d to %d rows", prev, len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-9 {
			return fmt.Errorf("router: stream scores increase at %d (%g > %g)", i, scores[i], scores[i-1])
		}
	}
	if c.fetched && len(scores) == prev && !exhausted {
		// No growth, no exhaustion: refilling again would loop forever.
		return fmt.Errorf("router: stream made no progress past %d rows", prev)
	}
	c.rows, c.scores, c.exhausted = rows, scores, exhausted
	if c.fetched {
		c.refills++
	}
	c.fetched = true
	return nil
}

// headHeap is a max-heap of buffered stream heads ordered by (score
// desc, stream index asc). The index tie-break pins a deterministic
// total order on equal scores regardless of fetch interleaving; within
// one stream, rows are consumed in stream order, completing the
// (score, stream, position) tie-break.
type headHeap []headEntry

type headEntry struct {
	score float64
	idx   int
}

func (h headHeap) Len() int { return len(h) }
func (h headHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].idx < h[j].idx
}
func (h headHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *headHeap) Push(x interface{}) { *h = append(*h, x.(headEntry)) }
func (h *headHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// beats reports whether a dormant stream (bound b, index bi) must be
// drained before the current best buffered head (score s, index si) may
// be emitted: its unseen rows could rank strictly earlier under the
// (score desc, stream asc) order.
func beats(b float64, bi int, s float64, si int) bool {
	return b > s || (b == s && bi < si)
}

// Merger is a resumable threshold merge over ranked shard streams: the
// per-shard cursors (fetched prefixes, consumption positions) and the
// head heap survive between Next calls, so pulling page N continues
// exactly where page N-1 stopped — streams are refilled only while
// their score bound still matters, and never re-fetched from the start.
// A Merger is the router-side half of a ranked cursor; it is not safe
// for concurrent use.
type Merger struct {
	cursors  []*cursor
	h        headHeap
	initialK int
	first    int
	started  bool
	refilled int // refills already attributed to earlier pages

	// An interrupted Next has already consumed rows from the per-stream
	// prefixes; they are parked here so the retry delivers them instead
	// of silently skipping ranks.
	pendingRows   [][]interface{}
	pendingScores []float64
	pendingOrigin []int
}

// NewMerger builds a resumable merge over the given streams. initialK
// is the per-stream depth of the (parallel) first fetch, issued lazily
// on the first Next call, and the step each refill grows a stream by.
// With initialK at least the first page's size the first page needs no
// refill: no stream can place more rows in it than the page holds.
func NewMerger(streams []Stream, initialK int) *Merger {
	m := &Merger{initialK: initialK}
	for _, s := range streams {
		m.cursors = append(m.cursors, &cursor{stream: s})
	}
	return m
}

// start issues the initial parallel fetch: shards compute their local
// top-k' concurrently, so the fan-out costs one shard round-trip, not
// N. Safe to retry after an error — already-fetched streams are
// skipped.
func (m *Merger) start(k int) error {
	first := m.initialK
	if k <= 0 {
		first = 0 // fetch everything
	} else if first <= 0 {
		first = k
	}
	m.first = first
	var wg sync.WaitGroup
	errs := make([]error, len(m.cursors))
	for i, c := range m.cursors {
		if c.fetched {
			continue
		}
		wg.Add(1)
		go func(i int, c *cursor) {
			defer wg.Done()
			errs[i] = c.fetch(first)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.started = true
	for i, c := range m.cursors {
		if c.pos < len(c.scores) {
			heap.Push(&m.h, headEntry{c.scores[c.pos], i})
		}
	}
	return nil
}

// Next pulls the next page of up to k rows from the merged ranked
// stream (all remaining rows when k <= 0). Rows are drawn in globally
// non-increasing score order via the persistent max-heap; a dormant
// stream is refilled only while its score bound can still affect the
// next output row. Pruned and Refills
// describe this page; Exhausted reports that the whole merged stream has
// run dry.
func (m *Merger) Next(k int) (*Merged, error) {
	out := &Merged{}
	if len(m.cursors) == 0 {
		out.Exhausted = true
		return out, nil
	}
	if !m.started {
		if err := m.start(k); err != nil {
			return nil, err
		}
	}

	// Serve rows parked by an interrupted page first.
	if len(m.pendingRows) > 0 {
		take := len(m.pendingRows)
		if k > 0 && take > k {
			take = k
		}
		out.Rows = append(out.Rows, m.pendingRows[:take]...)
		out.Scores = append(out.Scores, m.pendingScores[:take]...)
		out.Origin = append(out.Origin, m.pendingOrigin[:take]...)
		m.pendingRows = m.pendingRows[take:]
		m.pendingScores = m.pendingScores[take:]
		m.pendingOrigin = m.pendingOrigin[take:]
	}

	h := &m.h
	for (k <= 0 || len(out.Rows) < k) && len(m.pendingRows) == 0 {
		// Refill any dormant stream whose bound could place a row ahead
		// of the best buffered head (or any, when nothing is buffered).
		for {
			refill := -1
			for i, c := range m.cursors {
				if c.pos < len(c.scores) || c.exhausted {
					continue
				}
				if h.Len() == 0 || beats(c.bound(), i, (*h)[0].score, (*h)[0].idx) {
					refill = i
					break
				}
			}
			if refill < 0 {
				break
			}
			c := m.cursors[refill]
			// A refill grows the stream by the first fetch's depth, so a
			// stream's total depth stays close to what the consumed pages
			// needed.
			if err := c.fetch(len(c.scores) + m.first); err != nil {
				// Rows already popped this page must not be lost; park
				// them for the retry.
				m.pendingRows = append(out.Rows, m.pendingRows...)
				m.pendingScores = append(out.Scores, m.pendingScores...)
				m.pendingOrigin = append(out.Origin, m.pendingOrigin...)
				return nil, err
			}
			if c.pos < len(c.scores) {
				heap.Push(h, headEntry{c.scores[c.pos], refill})
			}
		}
		if h.Len() == 0 {
			out.Exhausted = true
			break
		}
		top := heap.Pop(h).(headEntry)
		c := m.cursors[top.idx]
		out.Rows = append(out.Rows, c.rows[c.pos])
		out.Scores = append(out.Scores, c.scores[c.pos])
		out.Origin = append(out.Origin, top.idx)
		c.pos++
		if c.pos < len(c.scores) {
			heap.Push(h, headEntry{c.scores[c.pos], top.idx})
		}
	}

	totalRefills := 0
	drained := true
	for i, c := range m.cursors {
		totalRefills += c.refills
		if !c.exhausted {
			// The page ended while this stream still had unfetched rows:
			// the threshold bound proved they cannot displace the result
			// so far.
			out.Pruned = append(out.Pruned, i)
		}
		if !c.exhausted || c.pos < len(c.scores) {
			drained = false
		}
	}
	out.Refills = totalRefills - m.refilled
	m.refilled = totalRefills
	if drained && len(m.pendingRows) == 0 {
		out.Exhausted = true
	}
	return out, nil
}

// MergeTopK runs a one-shot threshold merge: NewMerger plus a single
// Next(k). k <= 0 merges everything (each stream is fetched fully up
// front).
func MergeTopK(streams []Stream, k, initialK int) (*Merged, error) {
	return NewMerger(streams, initialK).Next(k)
}
