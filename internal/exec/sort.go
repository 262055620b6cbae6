package exec

import (
	"fmt"
	"sort"
	"time"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// SortScore is the traditional monolithic τ_F: it materializes its whole
// input, evaluates every remaining ranking predicate on every tuple
// (paying the full predicate cost — the behaviour the rank-relational
// algebra exists to avoid), sorts by the completed score and streams the
// result. It is blocking: the first output appears only after the last
// input arrived.
type SortScore struct {
	opBase
	child Operator

	buf []*schema.Tuple
	pos int
}

// NewSortScore builds τ_F(child).
func NewSortScore(child Operator) *SortScore {
	s := &SortScore{child: child}
	s.sch = child.Schema()
	return s
}

// Open implements Operator.
func (s *SortScore) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.reset()
	s.buf = nil
	s.pos = 0
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	// Bind the remaining predicates lazily: which are missing is known
	// from the child's declared evaluated set; per-tuple stragglers are
	// handled too (the evaluated set is checked per tuple).
	missing := ctx.Spec.AllEvaluated().Diff(s.child.Evaluated())
	bps := make(map[int]*boundPred)
	var bindErr error
	missing.Each(func(i int) {
		if bindErr != nil {
			return
		}
		bp, err := bindPred(ctx.Spec.Preds[i], s.sch, false)
		if err != nil {
			bindErr = err
			return
		}
		bps[i] = bp
	})
	if bindErr != nil {
		return bindErr
	}
	for {
		t, err := s.child.Next(ctx)
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		need := ctx.Spec.AllEvaluated().Diff(t.Evaluated)
		need.Each(func(i int) {
			bp := bps[i]
			if bp == nil {
				// Tuple is missing a predicate the child claimed to
				// have evaluated; bind on demand.
				nbp, err := bindPred(ctx.Spec.Preds[i], s.sch, false)
				if err != nil {
					bindErr = err
					return
				}
				bps[i] = nbp
				bp = nbp
			}
			ctx.evalPred(bp, t)
		})
		if bindErr != nil {
			return bindErr
		}
		ctx.Spec.Rescore(t)
		s.buf = append(s.buf, t)
		ctx.Stats.buffer(1)
	}
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i].Less(s.buf[j]) })
	return nil
}

// Next implements Operator.
func (s *SortScore) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	t := s.buf[s.pos]
	s.pos++
	ctx.Stats.buffer(-1)
	return s.emit(t), nil
}

// Close implements Operator.
func (s *SortScore) Close() error {
	s.buf = nil
	return s.child.Close()
}

// Evaluated implements Operator.
func (s *SortScore) Evaluated() schema.Bitset { return ^schema.Bitset(0) }

// Name implements Operator.
func (s *SortScore) Name() string { return "sort_F" }

// Children implements Operator.
func (s *SortScore) Children() []Operator { return []Operator{s.child} }

// SortColumn materializes and re-orders its input by a column — the
// classic sort that feeds sort-merge joins. Ranking state is preserved on
// tuples but the output order is by the column, so the plan-level
// evaluated set is reported as empty (rank order is destroyed; cf. §5.1:
// interesting orders belong to SP = ∅ plans only).
type SortColumn struct {
	opBase
	child  Operator
	column string
	asc    bool

	colIdx int
	buf    []*schema.Tuple
	pos    int
}

// NewSortColumn builds a column sort; column is resolved against the
// child's schema (qualified or not).
func NewSortColumn(child Operator, table, column string, asc bool) (*SortColumn, error) {
	s := &SortColumn{child: child, column: column, asc: asc}
	s.sch = child.Schema()
	s.colIdx = s.sch.ColumnIndex(table, column)
	if s.colIdx < 0 {
		return nil, fmt.Errorf("exec: sort column %s.%s not found in %s", table, column, s.sch)
	}
	return s, nil
}

// Open implements Operator.
func (s *SortColumn) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.reset()
	s.buf = nil
	s.pos = 0
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	for {
		t, err := s.child.Next(ctx)
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		s.buf = append(s.buf, t)
		ctx.Stats.buffer(1)
	}
	ci := s.colIdx
	sort.SliceStable(s.buf, func(i, j int) bool {
		c := types.Compare(s.buf[i].Values[ci], s.buf[j].Values[ci])
		if s.asc {
			return c < 0
		}
		return c > 0
	})
	return nil
}

// Next implements Operator.
func (s *SortColumn) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	t := s.buf[s.pos]
	s.pos++
	ctx.Stats.buffer(-1)
	return s.emit(t), nil
}

// Close implements Operator.
func (s *SortColumn) Close() error {
	s.buf = nil
	return s.child.Close()
}

// Evaluated implements Operator.
func (s *SortColumn) Evaluated() schema.Bitset { return 0 }

// Name implements Operator.
func (s *SortColumn) Name() string {
	dir := "asc"
	if !s.asc {
		dir = "desc"
	}
	return fmt.Sprintf("sort_%s/%s", s.column, dir)
}

// Children implements Operator.
func (s *SortColumn) Children() []Operator { return []Operator{s.child} }

// Limit emits at most K tuples (the λ_k of the canonical form). On a
// ranked input this is the top-k cut; execution above and below stops as
// soon as the k-th tuple is delivered — the pipelined behaviour that makes
// ranking plans' cost proportional to k.
//
// The cut is a quota that Open sets to K. A one-shot run drains the tree
// and the quota ends it; a cursor, for which the statement's k tunes the
// plan but does not cap the stream, calls Extend before each page.
type Limit struct {
	opBase
	child Operator
	K     int

	quota int
	n     int
}

// NewLimit builds λ_k(child).
func NewLimit(child Operator, k int) *Limit {
	l := &Limit{child: child, K: k}
	l.sch = child.Schema()
	return l
}

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	if ctx.Profile {
		defer l.prof(time.Now())
	}
	l.reset()
	l.n = 0
	l.quota = l.K
	return l.child.Open(ctx)
}

// Extend moves the quota to n tuples past what has been emitted so far:
// the next page of a stream that outlives the statement's k.
func (l *Limit) Extend(n int) { l.quota = l.n + n }

// Next implements Operator.
func (l *Limit) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer l.prof(time.Now())
	}
	if l.n >= l.quota {
		return nil, nil
	}
	t, err := l.child.Next(ctx)
	if err != nil || t == nil {
		return nil, err
	}
	l.n++
	return l.emit(t), nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

// Evaluated implements Operator.
func (l *Limit) Evaluated() schema.Bitset { return l.child.Evaluated() }

// Name implements Operator.
func (l *Limit) Name() string { return fmt.Sprintf("limit(%d)", l.K) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.child} }
