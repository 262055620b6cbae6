package ranksql

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ranksql/internal/schema"
	"ranksql/internal/sql"
	"ranksql/internal/types"
)

// ErrCursorInvalidated is returned by Cursor.Fetch when DDL (or an
// optimizer reconfiguration) bumped the schema version after the cursor
// was opened: the suspended operator tree references catalog state that
// may no longer exist, so the cursor closes itself and must be re-opened.
var ErrCursorInvalidated = errors.New("engine: cursor invalidated by a schema change; re-open it")

// ErrCursorClosed is returned by Cursor.Fetch after Close (or after the
// cursor was invalidated).
var ErrCursorClosed = errors.New("engine: cursor is closed")

// Cursor is a resumable ranked stream over a SELECT or set-operation
// statement: an opened operator tree whose state (ranking queues, join
// frontiers, depth-of-enumeration counters) is suspended between pulls,
// so fetching page N never re-plans or re-executes pages 1..N-1. Pages
// come back in the query's score order; a LIMIT k in the statement tunes
// the plan for depth k but does not cap the stream — the cursor pages
// past it.
//
// Snapshot semantics: every scan pins a TID bound (the table's row count)
// at Open and skips rows at or past it, and index iterators re-seek after
// an insert changes their tree, so the stream is a consistent snapshot of
// the data as of Open even while inserts land between pulls. DDL
// invalidates the cursor (ErrCursorInvalidated).
//
// A Cursor is safe for concurrent use, though pulls serialize: each
// Fetch holds the database's read lock for the duration of the pull,
// like any query.
type Cursor struct {
	db *DB

	mu sync.Mutex
	// s is the suspended stream; nil once the cursor is closed.
	s         *stream
	columns   []string
	k         int // the statement's LIMIT (plan-tuning hint; 0 = none)
	version   uint64
	pulled    int
	exhausted bool
	cacheHit  bool
	// pending holds tuples pulled by an interrupted fetch: they were
	// already consumed from the operator tree, so the next fetch must
	// deliver them first or the stream would silently skip rows.
	pending []*schema.Tuple
}

// Cursor opens a resumable ranked cursor over a SELECT or set-operation
// statement. Repeated SELECT templates share the plan cache with Query.
func (db *DB) Cursor(src string) (*Cursor, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.cursor(st, "", nil, nil)
}

// Cursor opens a resumable ranked cursor over the prepared query with
// the given parameter values, through the same plan-cache paths as Query.
func (s *Stmt) Cursor(args ...interface{}) (*Cursor, error) {
	params, release, err := getParams(args)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.db.cursor(s.stmt, s.norm, params, s)
}

// cursor resolves the statement's stream exactly as query does, but
// instead of draining it opens it once and suspends it; Fetch pulls pages.
func (db *DB) cursor(st sql.Stmt, norm string, params []types.Value, pr *Stmt) (*Cursor, error) {
	if explain, _ := explainFlags(st); explain {
		return nil, fmt.Errorf("engine: cannot open a cursor on an EXPLAIN statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, hit, err := db.streamFor(st, norm, params, pr)
	if err != nil {
		return nil, err
	}
	if err := s.open(params, db.shouldProfile(s.cp), true); err != nil {
		s.release()
		return nil, err
	}
	return &Cursor{
		db: db, s: s,
		columns: s.columns, k: s.k(), version: db.version, cacheHit: hit,
	}, nil
}

// Fetch pulls the next n rows from the suspended stream. The returned
// page's Exhausted reports whether the stream ran dry (a short page);
// Stats are cumulative across all pulls of this cursor, so the last
// page's counters describe the whole enumeration. K echoes the page
// size requested.
func (c *Cursor) Fetch(n int) (*Rows, error) {
	return c.FetchContext(context.Background(), n)
}

// FetchContext is Fetch with cancellation: when ctx is done, the pull is
// interrupted at the next cancellation point (the cursor stays usable).
func (c *Cursor) FetchContext(ctx context.Context, n int) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("engine: cursor fetch size must be positive, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s == nil {
		return nil, ErrCursorClosed
	}
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	if c.db.version != c.version {
		_ = c.closeLocked()
		return nil, ErrCursorInvalidated
	}
	tuples := c.pending
	c.pending = nil
	switch {
	case len(tuples) > n:
		c.pending = tuples[n:]
		tuples = tuples[:n:n]
	case len(tuples) < n && !c.exhausted:
		more, err := c.s.pull(n-len(tuples), ctx.Done())
		tuples = append(tuples, more...)
		if err != nil {
			// The pull was interrupted (cancellation) or failed; the
			// tuples already consumed from the tree must not be lost, so
			// they wait for the next fetch.
			c.pending = tuples
			return nil, ctxErr(ctx, err)
		}
		c.exhausted = len(tuples) < n
	}
	c.pulled += len(tuples)
	rows := c.s.rows(tuples)
	rows.CacheHit = c.cacheHit
	rows.K = n
	rows.Exhausted = c.exhausted
	return rows, nil
}

// Close releases the cursor's suspended operator tree, handing it back to
// its plan (a stream that failed mid-pull is dropped instead). Idempotent.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
}

func (c *Cursor) closeLocked() error {
	s := c.s
	if s == nil {
		return nil
	}
	c.s, c.pending = nil, nil
	return s.release()
}

// Pulled returns the total number of rows fetched so far (the 0-based
// rank of the next row).
func (c *Cursor) Pulled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pulled
}

// Exhausted reports whether the stream has run dry.
func (c *Cursor) Exhausted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exhausted
}

// Columns returns the qualified output column names.
func (c *Cursor) Columns() []string { return append([]string(nil), c.columns...) }

// CacheHit reports whether opening the cursor reused a cached plan.
func (c *Cursor) CacheHit() bool { return c.cacheHit }

// K returns the statement's LIMIT — the depth hint the plan was tuned
// for (0 when the statement had none). The stream itself is not capped.
func (c *Cursor) K() int { return c.k }

// pinnedTupleBytes is the accounting estimate for one tuple held in a
// suspended operator buffer: the Tuple struct (values header, score,
// predicate scores, bitsets, TID) plus per-column value storage.
const pinnedTupleBytes = 96

const pinnedColumnBytes = 48

// PinnedBytes estimates the memory pinned by the cursor's suspended
// operator state: tuples resident in ranking queues, hash tables and
// materializations plus tuples parked by an interrupted fetch, costed at
// a fixed per-tuple + per-column rate. Zero once the cursor is closed.
// The estimate backs the server's cursor_pinned_bytes gauge; it is not
// allocation-exact accounting.
func (c *Cursor) PinnedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s == nil {
		return 0
	}
	tuples := c.s.ctx.Stats.Buffered + int64(len(c.pending))
	if tuples < 0 {
		tuples = 0
	}
	return tuples * (pinnedTupleBytes + pinnedColumnBytes*int64(len(c.columns)))
}
