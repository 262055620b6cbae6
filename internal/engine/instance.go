package engine

import (
	"fmt"

	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// stream is the one way the engine executes anything: a built operator
// tree with what it takes to open it, pull ranked tuples from it, shape
// them into Rows and close it. A top-k answer is a prefix of the stream,
// so Query is open → pull to λ_k's quota → rows → release, and a Cursor
// is the same stream kept open between Fetches.
//
// A SELECT's streams are instances of its CompiledPlan and are pooled
// there. Build deep-clones every condition into the operators it creates,
// so an instance's parameter slots are private: writing them rebinds
// exactly this tree, two instances of one plan share no mutable state,
// and a template hit costs neither a plan clone nor a tree build.
// Set-operation streams are built per statement (cp == nil) and never
// pooled.
type stream struct {
	op exec.Operator
	// limit is the tree's λ_k, nil when the statement has no LIMIT.
	limit   *exec.Limit
	ctx     *exec.Context
	labels  *exec.TreeLabels
	params  []*expr.Param
	columns []string
	// planText renders the optimizer's plan for EXPLAIN.
	planText func() string
	cp       *CompiledPlan
	// failed marks a tree whose open or pull returned an error: its state
	// is unknown, so release closes it without pooling.
	failed bool
}

// newStream wraps a built tree; limit is the λ_k inside it, or nil.
func newStream(op exec.Operator, limit *exec.Limit, spec *rank.Spec, planText func() string) *stream {
	s := &stream{
		op:       op,
		limit:    limit,
		ctx:      exec.NewContext(spec),
		labels:   exec.NewTreeLabels(op),
		params:   exec.CollectParams(op),
		planText: planText,
	}
	for _, c := range op.Schema().Columns {
		s.columns = append(s.columns, c.QualifiedName())
	}
	return s
}

// k is the statement's LIMIT, which its λ_k carries (0 = none).
func (s *stream) k() int {
	if s.limit == nil {
		return 0
	}
	return s.limit.K
}

// newInstance wraps a tree built from cp.Plan — rooted in λ_k when the
// statement has a LIMIT — as a poolable stream of the plan. The
// projection, which is not a plan node, is applied here.
func (cp *CompiledPlan) newInstance(op exec.Operator) (*stream, error) {
	limit, _ := op.(*exec.Limit)
	if cp.Proj != nil {
		pr, err := exec.NewProject(op, cp.Proj)
		if err != nil {
			return nil, err
		}
		op = pr
	}
	s := newStream(op, limit, cp.Spec, cp.Plan.String)
	if cp.HasParams && len(s.params) == 0 {
		// The plan claims placeholder conditions but the built tree
		// exposes none: binding would silently run with the values the
		// plan was compiled under. Fail loudly instead.
		return nil, fmt.Errorf("engine: parameterized plan built no parameter slots")
	}
	s.cp = cp
	return s, nil
}

// acquireInstance returns an unopened stream of the plan, reusing a
// pooled one when available. Hand it back with release.
func (cp *CompiledPlan) acquireInstance() (*stream, error) {
	if v := cp.pool.Get(); v != nil {
		return v.(*stream), nil
	}
	op, err := cp.Plan.Build(cp.Env)
	if err != nil {
		return nil, err
	}
	return cp.newInstance(op)
}

// bind writes the request's values into the stream's parameter slots.
func (s *stream) bind(params []types.Value) error {
	for _, p := range s.params {
		if p.Index >= len(params) {
			return fmt.Errorf("engine: parameter %d not bound", p.Index+1)
		}
		p.Val = params[p.Index]
		p.Bound = true
	}
	return nil
}

// open binds the parameters and opens the tree. A one-shot run of a pooled
// stream bulk-allocates its tuples from an arena that release recycles:
// they all die there. A suspended stream (a cursor's, outliving this
// call) heap-allocates instead, so a deep cursor does not pin every tuple
// it ever produced, and gives the arena up, so an idle one does not pin
// the slabs of the largest one-shot run its tree ever served. Callers hold
// db.mu (read side), here and for pull.
func (s *stream) open(params []types.Value, profile, suspended bool) error {
	s.failed = true // until the tree is open
	if err := s.bind(params); err != nil {
		return err
	}
	s.ctx.Profile = profile
	if suspended {
		s.ctx.Arena = nil
	} else if s.cp != nil && s.ctx.Arena == nil {
		s.ctx.Arena = &schema.TupleArena{}
	}
	if err := s.op.Open(s.ctx); err != nil {
		return err
	}
	s.failed = false
	return nil
}

// pull draws the next n tuples of the stream, raising λ_k's quota to let
// them through; a short page means the stream ran dry. n <= 0 draws until
// the stream ends, which for a tree with a λ_k is at its quota — the
// one-shot top-k run. Tuples drawn before an error are returned with it.
func (s *stream) pull(n int, cancel <-chan struct{}) ([]*schema.Tuple, error) {
	s.ctx.Cancel = cancel
	var tuples []*schema.Tuple
	var err error
	if n <= 0 {
		tuples, err = exec.Drain(s.ctx, s.op)
	} else {
		if s.limit != nil {
			s.limit.Extend(n)
		}
		tuples, err = exec.PullN(s.ctx, s.op, n)
	}
	s.ctx.Cancel = nil
	if err != nil {
		s.failed = true
	}
	return tuples, err
}

// rows shapes pulled tuples and the tree's counters so far into a result;
// nothing else in the engine fills Rows.Data and Rows.Scores. Values and
// Score survive release: scan tuples alias immutable table rows and
// projected tuples carry fresh slices; only the tuple structs themselves
// may be arena-owned.
func (s *stream) rows(tuples []*schema.Tuple) *Rows {
	tree := s.labels.Snapshot()
	rows := &Rows{
		Columns:  append([]string(nil), s.columns...),
		Data:     make([][]types.Value, len(tuples)),
		Scores:   make([]float64, len(tuples)),
		Stats:    s.ctx.Stats,
		ExecTree: tree.String,
		Tree:     tree,
		Profiled: tree.Profiled(),
	}
	for i, t := range tuples {
		rows.Data[i] = t.Values
		rows.Scores[i] = t.Score
	}
	if s.cp != nil {
		rows.Plan = s.cp.Plan
		if rows.Profiled {
			rows.Est = PlanEstimates(s.cp.Plan, tree)
		}
	}
	return rows
}

// release closes the tree and, when it belongs to a plan and never
// failed, unbinds its parameter slots (so a pooling bug surfaces as an
// "unbound parameter" error, not a silent stale read), recycles the arena
// and pools the stream for the plan's next request. Only call it after
// rows: arena tuples die here.
func (s *stream) release() error {
	err := s.op.Close()
	if err != nil || s.failed || s.cp == nil {
		return err
	}
	for _, p := range s.params {
		p.Val = types.Null()
		p.Bound = false
	}
	s.ctx.Reset()
	s.cp.pool.Put(s)
	return nil
}
