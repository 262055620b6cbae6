package sql

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ranksql/internal/expr"
	"ranksql/internal/types"
)

// normBuf is a reusable byte buffer for rendering normalized statements.
// The rendered bytes are copied into the returned string, so the buffer
// goes straight back to the pool.
type normBuf struct {
	buf []byte
}

var normPool = sync.Pool{
	New: func() interface{} { return &normBuf{buf: make([]byte, 0, 256)} },
}

// Normalize renders a parsed statement in a canonical textual form:
// uniform keyword case, single spacing, lower-cased identifiers and fully
// parenthesized expressions, with parameter placeholders kept as `?`.
// Two statements that normalize identically are the same query template,
// which is what the plan cache keys on.
func Normalize(st Stmt) string {
	switch s := st.(type) {
	case *SelectStmt:
		b := normPool.Get().(*normBuf)
		b.buf = appendSelect(b.buf[:0], s)
		out := string(b.buf)
		normPool.Put(b)
		return out
	case *SetOpStmt:
		b := normPool.Get().(*normBuf)
		buf := appendSelect(b.buf[:0], s.L)
		buf = append(buf, ' ')
		buf = append(buf, s.Kind.String()...)
		buf = append(buf, ' ')
		buf = appendSelect(buf, s.R)
		buf = appendOrderLimit(buf, s.Order, s.Limit, s.LimitParam)
		b.buf = buf
		out := string(buf)
		normPool.Put(b)
		return out
	case *InsertStmt:
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", strings.ToLower(s.Table))
		slot := 0
		for i, row := range s.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, v := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				if slot < len(s.Params) && s.Params[slot].Row == i && s.Params[slot].Col == j {
					b.WriteString("?")
					slot++
					continue
				}
				b.WriteString(renderLiteral(v))
			}
			b.WriteString(")")
		}
		return b.String()
	case *CreateTableStmt:
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = strings.ToLower(c.Name) + " " + strings.ToUpper(c.Kind.String())
		}
		return fmt.Sprintf("CREATE TABLE %s (%s)", strings.ToLower(s.Name), strings.Join(cols, ", "))
	case *CreateIndexStmt:
		return fmt.Sprintf("CREATE INDEX ON %s (%s)", strings.ToLower(s.Table), strings.ToLower(s.Column))
	case *CreateRankIndexStmt:
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = strings.ToLower(c)
		}
		return fmt.Sprintf("CREATE RANK INDEX ON %s (%s(%s))",
			strings.ToLower(s.Table), strings.ToLower(s.Scorer), strings.Join(cols, ", "))
	case *DropTableStmt:
		return "DROP TABLE " + strings.ToLower(s.Name)
	default:
		return fmt.Sprintf("%T", st)
	}
}

// appendLower appends s lower-cased. Pure-ASCII input (the overwhelmingly
// common case for identifiers) lowers byte-by-byte without allocating;
// the first non-ASCII byte falls back to strings.ToLower for the rest,
// which is byte-identical because ToLower maps runes independently.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return append(dst, strings.ToLower(s[i:])...)
		}
		dst = append(dst, lowerTab[c])
	}
	return dst
}

func appendSelect(buf []byte, s *SelectStmt) []byte {
	buf = append(buf, "SELECT "...)
	if len(s.Projection) == 0 {
		buf = append(buf, '*')
	} else {
		for i, c := range s.Projection {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendCol(buf, c)
		}
	}
	buf = append(buf, " FROM "...)
	for i, tr := range s.Tables {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendLower(buf, tr.Name)
		if !strings.EqualFold(tr.Alias, tr.Name) {
			buf = append(buf, " AS "...)
			buf = appendLower(buf, tr.Alias)
		}
	}
	if s.Where != nil {
		buf = append(buf, " WHERE "...)
		buf = appendExpr(buf, s.Where)
	}
	return appendOrderLimit(buf, s.Order, s.Limit, s.LimitParam)
}

func appendOrderLimit(buf []byte, order []OrderTerm, limit, limitParam int) []byte {
	if len(order) > 0 {
		buf = append(buf, " ORDER BY "...)
		for i, t := range order {
			if i > 0 {
				buf = append(buf, " + "...)
			}
			if t.Weight != 1 {
				buf = strconv.AppendFloat(buf, t.Weight, 'g', -1, 64)
				buf = append(buf, '*')
			}
			if t.Scorer != "" {
				buf = appendLower(buf, t.Scorer)
				buf = append(buf, '(')
				for j, a := range t.Args {
					if j > 0 {
						buf = append(buf, ", "...)
					}
					buf = appendCol(buf, a)
				}
				buf = append(buf, ')')
			} else {
				buf = appendExpr(buf, t.Expr)
			}
		}
	}
	switch {
	case limitParam > 0:
		buf = append(buf, " LIMIT ?"...)
	case limit > 0:
		buf = append(buf, " LIMIT "...)
		buf = strconv.AppendInt(buf, int64(limit), 10)
	}
	return buf
}

// appendCol appends a column reference with lower-cased identifiers.
func appendCol(buf []byte, c *expr.Col) []byte {
	if c.Table != "" {
		buf = appendLower(buf, c.Table)
		buf = append(buf, '.')
	}
	return appendLower(buf, c.Name)
}

// appendExpr renders an expression exactly like renderExpr used to —
// each node's String() format, with column identifiers lower-cased and
// literals (notably strings) keeping their case — but appending into the
// caller's buffer instead of building throwaway node strings.
func appendExpr(buf []byte, e expr.Expr) []byte {
	switch n := e.(type) {
	case *expr.Col:
		return appendCol(buf, n)
	case *expr.Const:
		return appendValue(buf, n.Val)
	case *expr.Param:
		return append(buf, '?')
	case *expr.Binary:
		buf = append(buf, '(')
		buf = appendExpr(buf, n.L)
		buf = append(buf, ' ')
		buf = append(buf, n.Op.String()...)
		buf = append(buf, ' ')
		buf = appendExpr(buf, n.R)
		return append(buf, ')')
	case *expr.Not:
		buf = append(buf, "NOT "...)
		return appendExpr(buf, n.E)
	case *expr.IsNull:
		buf = appendExpr(buf, n.E)
		if n.Negate {
			return append(buf, " IS NOT NULL"...)
		}
		return append(buf, " IS NULL"...)
	default:
		// Unknown node: fall back to the clone-and-String path so new
		// expression types stay correct (if slower) until added here.
		return append(buf, renderExpr(e)...)
	}
}

// appendValue appends a literal in Const.String() form: strings
// single-quoted with embedded quotes doubled, every other kind via
// Value.String's formatting.
func appendValue(buf []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindString:
		buf = append(buf, '\'')
		s := v.Str()
		for i := 0; i < len(s); i++ {
			buf = append(buf, s[i])
			if s[i] == '\'' {
				buf = append(buf, '\'')
			}
		}
		return append(buf, '\'')
	case types.KindNull:
		return append(buf, "NULL"...)
	case types.KindBool:
		if v.Bool() {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case types.KindInt:
		return strconv.AppendInt(buf, v.Int(), 10)
	case types.KindFloat:
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	default:
		return append(buf, v.String()...)
	}
}

// renderExpr renders an expression with lower-cased column identifiers;
// literals (notably strings) keep their case. It is the reference
// implementation appendExpr mirrors, kept for expression types the
// append path does not know about.
func renderExpr(e expr.Expr) string {
	c := expr.Clone(e)
	expr.Walk(c, func(n expr.Expr) {
		if col, ok := n.(*expr.Col); ok {
			col.Table = strings.ToLower(col.Table)
			col.Name = strings.ToLower(col.Name)
		}
	})
	return c.String()
}

// renderLiteral defers to Const.String so literal escaping (quote
// doubling) has exactly one implementation that cache keys depend on.
func renderLiteral(v types.Value) string {
	return expr.NewConst(v).String()
}

// CountParams returns the number of `?` placeholders in a statement.
func CountParams(st Stmt) int {
	max := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	switch s := st.(type) {
	case *SelectStmt:
		n := expr.CountParams(s.Where)
		for _, t := range s.Order {
			n = max(n, expr.CountParams(t.Expr))
		}
		return max(n, s.LimitParam)
	case *SetOpStmt:
		n := max(CountParams(s.L), CountParams(s.R))
		for _, t := range s.Order {
			n = max(n, expr.CountParams(t.Expr))
		}
		return max(n, s.LimitParam)
	case *InsertStmt:
		n := 0
		for _, p := range s.Params {
			n = max(n, p.Index+1)
		}
		return n
	default:
		return 0
	}
}

// BindParams returns a copy of the statement with every placeholder bound
// to the corresponding value. The input statement is not modified, so a
// prepared template can be bound concurrently with different values.
func BindParams(st Stmt, vals []types.Value) (Stmt, error) {
	if want := CountParams(st); len(vals) != want {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), %d value(s) bound", want, len(vals))
	}
	switch s := st.(type) {
	case *SelectStmt:
		return bindSelect(s, vals)
	case *SetOpStmt:
		l, err := bindSelect(s.L, vals)
		if err != nil {
			return nil, err
		}
		r, err := bindSelect(s.R, vals)
		if err != nil {
			return nil, err
		}
		out := *s
		out.L, out.R = l, r
		if s.LimitParam > 0 {
			k, err := LimitValue(vals, s.LimitParam)
			if err != nil {
				return nil, err
			}
			out.Limit, out.LimitParam = k, 0
		}
		return &out, nil
	case *InsertStmt:
		out := *s
		out.Rows = make([][]types.Value, len(s.Rows))
		for i, row := range s.Rows {
			out.Rows[i] = append([]types.Value(nil), row...)
		}
		out.Params = nil
		for _, p := range s.Params {
			out.Rows[p.Row][p.Col] = vals[p.Index]
		}
		return &out, nil
	default:
		if len(vals) > 0 {
			return nil, fmt.Errorf("sql: %T does not take parameters", st)
		}
		return st, nil
	}
}

// bindSelect binds a SELECT against the full statement value list (indexes
// are global across set-operation operands).
func bindSelect(s *SelectStmt, vals []types.Value) (*SelectStmt, error) {
	out := *s
	if s.Where != nil {
		w, err := expr.SubstParams(s.Where, vals)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	if len(s.Order) > 0 {
		out.Order = append([]OrderTerm(nil), s.Order...)
		for i, t := range out.Order {
			if t.Expr != nil {
				e, err := expr.SubstParams(t.Expr, vals)
				if err != nil {
					return nil, err
				}
				out.Order[i].Expr = e
			}
		}
	}
	if s.LimitParam > 0 {
		k, err := LimitValue(vals, s.LimitParam)
		if err != nil {
			return nil, err
		}
		out.Limit, out.LimitParam = k, 0
	}
	return &out, nil
}

// LimitValue extracts and validates a LIMIT bound from the 1-based
// placeholder position. It is the single source of truth for what a
// `LIMIT ?` binding accepts (the engine also uses it to resolve the
// plan-cache key's k). Zero is rejected: the engine represents "no
// LIMIT" as 0, so accepting it would silently turn a bounded top-k
// request into a full result dump.
func LimitValue(vals []types.Value, limitParam int) (int, error) {
	v := vals[limitParam-1]
	if v.Kind() != types.KindInt || v.Int() <= 0 {
		return 0, fmt.Errorf("sql: LIMIT parameter must be a positive integer, got %s", v)
	}
	return int(v.Int()), nil
}
