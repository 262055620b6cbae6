package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// wireRequest is the request envelope of the daemon's POST endpoints, as
// documented in internal/server/README.md.
type wireRequest struct {
	SQL       string        `json:"sql,omitempty"`
	SessionID string        `json:"session_id,omitempty"`
	StmtID    string        `json:"stmt_id,omitempty"`
	Params    []interface{} `json:"params,omitempty"`
	Cursor    bool          `json:"cursor,omitempty"`
	CursorID  string        `json:"cursor_id,omitempty"`
	Fetch     int           `json:"fetch,omitempty"`
}

// wireResponse is the part of the daemon's responses the harness reads.
// Rows stay raw in the timed window (counting them is enough for the
// ranked contract); the check phases decode them.
type wireResponse struct {
	Error        string            `json:"error"`
	Rows         []json.RawMessage `json:"rows"`
	Scores       []float64         `json:"scores"`
	Ranks        []int             `json:"ranks"`
	CursorID     string            `json:"cursor_id"`
	Exhausted    bool              `json:"exhausted"`
	SessionID    string            `json:"session_id"`
	StmtID       string            `json:"stmt_id"`
	RowsAffected int               `json:"rows_affected"`
}

// client is one closed-loop caller: its own keep-alive connection, its
// own session and prepared statements, its own op stream.
type client struct {
	id       int
	workload string
	base     string
	http     *http.Client
	session  string
	stmts    []string // per template
	stream   []op
	pos      int
	wraps    int
	cursor   string // open cursor of the session in progress
	nextRank int    // rank the cursor's next page must start at
	lastCur  float64
	buf      bytes.Buffer
}

func newClient(id int, workload, base string, stream []op) *client {
	return &client{
		id: id, workload: workload, base: base, stream: stream,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
}

// post sends one request and decodes the response envelope. A transport
// error, a non-200 status and an {"error": ...} body all come back as an
// error.
func (c *client) post(ctx context.Context, path string, req *wireRequest, trace string) (*wireResponse, error) {
	c.buf.Reset()
	if err := json.NewEncoder(&c.buf).Encode(req); err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(c.buf.Bytes()))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if trace != "" {
		hreq.Header.Set(traceHeader, trace)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var out wireResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("%s: status %d, undecodable body: %w", path, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, out.Error)
	}
	return &out, nil
}

// traceHeader carries a trace ID across tiers (documented in the server
// README); the traced run uses it to link shard spans to router spans.
const traceHeader = "X-Ranksql-Trace"

// prepare opens the client's session and prepares every template in it.
func (c *client) prepare(ctx context.Context) error {
	resp, err := c.post(ctx, "/session", &wireRequest{}, "")
	if err != nil {
		return err
	}
	c.session = resp.SessionID
	for _, t := range webshopTemplates {
		resp, err := c.post(ctx, "/prepare", &wireRequest{SQL: t.sql, SessionID: c.session}, "")
		if err != nil {
			return err
		}
		c.stmts = append(c.stmts, resp.StmtID)
	}
	return nil
}

// next returns the stream's next op, wrapping at its end.
func (c *client) next() op {
	if c.pos == len(c.stream) {
		c.pos = 0
		c.wraps++
	}
	o := c.stream[c.pos]
	c.pos++
	return o
}

// request renders an op as an endpoint path and envelope.
func (c *client) request(o op) (string, *wireRequest) {
	switch o.kind {
	case opStateless:
		return "/query", &wireRequest{SQL: webshopTemplates[o.tmpl].sql, Params: o.params(c.workload, c.id)}
	case opPrepared:
		return "/query", &wireRequest{StmtID: c.stmts[o.tmpl], SessionID: c.session, Params: o.params(c.workload, c.id)}
	case opCursorOpen:
		return "/query", &wireRequest{SQL: webshopTemplates[o.tmpl].sql, Params: o.params(c.workload, c.id), Cursor: true, Fetch: cursorPage}
	case opCursorNext:
		return "/cursor/next", &wireRequest{CursorID: c.cursor, Fetch: cursorPage}
	case opCursorClose:
		return "/cursor/close", &wireRequest{CursorID: c.cursor}
	case opInsert:
		return "/exec", &wireRequest{SQL: insertSQL, Params: o.params(c.workload, c.id)}
	}
	panic("op kind " + strconv.Itoa(int(o.kind)) + " is not an HTTP op")
}

// do executes one op and checks the ranked contract on its response:
// no more rows than asked for, one score and one rank per row, scores
// non-increasing (across the pages of a cursor too), ranks contiguous.
func (c *client) do(ctx context.Context, o op, trace string) (*wireResponse, error) {
	path, req := c.request(o)
	resp, err := c.post(ctx, path, req, trace)
	if err != nil {
		if o.kind == opCursorOpen || o.kind == opCursorClose {
			c.cursor = ""
		}
		return nil, err
	}
	switch o.kind {
	case opInsert:
		if resp.RowsAffected != 1 {
			return resp, fmt.Errorf("insert affected %d rows, want 1", resp.RowsAffected)
		}
		return resp, nil
	case opCursorClose:
		c.cursor = ""
		return resp, nil
	case opCursorOpen:
		if resp.CursorID == "" {
			return resp, fmt.Errorf("cursor open returned no cursor_id")
		}
		c.cursor, c.nextRank, c.lastCur = resp.CursorID, 1, 0
	}
	first, prev := 1, 0.0
	if o.kind == opCursorOpen || o.kind == opCursorNext {
		first, prev = c.nextRank, c.lastCur
	}
	if err := checkRanked(resp, o.k, first, prev); err != nil {
		return resp, err
	}
	if n := len(resp.Scores); n > 0 {
		c.nextRank, c.lastCur = first+n, resp.Scores[n-1]
	}
	return resp, nil
}

// scoreEps absorbs the last-bit differences between the engine's score
// sums taken in different predicate orders.
const scoreEps = 1e-9

// checkRanked verifies one page against the ranked contract. firstRank
// is the rank its first row must carry; when firstRank > 1, prevScore is
// the last score of the page before.
func checkRanked(r *wireResponse, limit, firstRank int, prevScore float64) error {
	n := len(r.Rows)
	if n > limit {
		return fmt.Errorf("ranked contract: %d rows for limit %d", n, limit)
	}
	if len(r.Scores) != n || len(r.Ranks) != n {
		return fmt.Errorf("ranked contract: %d rows, %d scores, %d ranks", n, len(r.Scores), len(r.Ranks))
	}
	for i, s := range r.Scores {
		if (i > 0 || firstRank > 1) && s > prevScore+scoreEps {
			return fmt.Errorf("ranked contract: score %g at rank %d after %g", s, firstRank+i, prevScore)
		}
		prevScore = s
		if r.Ranks[i] != firstRank+i {
			return fmt.Errorf("ranked contract: rank %d where %d belongs", r.Ranks[i], firstRank+i)
		}
	}
	return nil
}

// closeCursor releases a session left open when the window closed.
func (c *client) closeCursor(ctx context.Context) {
	if c.cursor != "" {
		_, _ = c.do(ctx, op{kind: opCursorClose}, "") // best effort: the daemon is about to stop
	}
}

// sample is one completed op of the timed window: its latency, when it
// completed (milliseconds into the window) and the round that falls in.
// The op in flight when the window closes is kept with a round past the
// last one: it counts towards the last round's work, not its latencies.
type sample struct {
	kind  opKind
	round int
	ms    float64
	endMS float64
}

func newSample(kind opKind, start, t0, t1 time.Time, roundLen time.Duration) sample {
	return sample{kind, int(t1.Sub(start) / roundLen), float64(t1.Sub(t0)) / 1e6, float64(t1.Sub(start)) / 1e6}
}

// windowResult is what one closed-loop window produced.
type windowResult struct {
	samples  []sample
	failed   int
	firstErr error
	// cpuMS is the program's CPU time spent in each round.
	cpuMS []float64
}

// sampleCPU reads the processes' CPU time at every round boundary of a
// window opening at start. The returned function waits for the last
// reading and yields the CPU milliseconds spent in each round.
func sampleCPU(start time.Time, rounds int, roundLen time.Duration, pids []int) func() ([]float64, error) {
	at := make([]float64, rounds+1)
	errc := make(chan error, 1)
	go func() {
		for i := range at {
			time.Sleep(time.Until(start.Add(time.Duration(i) * roundLen)))
			v, err := sumOver(pids, cpuMillis)
			if err != nil {
				errc <- err
				return
			}
			at[i] = v
		}
		errc <- nil
	}()
	return func() ([]float64, error) {
		if err := <-errc; err != nil {
			return nil, err
		}
		per := make([]float64, rounds)
		for i := range per {
			per[i] = at[i+1] - at[i]
		}
		return per, nil
	}
}

// runWindow drives every client through its stream from start for
// rounds*roundLen: each client sends its next op only when the previous
// reply has arrived. An op belongs to the round it completes in.
func runWindow(ctx context.Context, clients []*client, start time.Time, rounds int, roundLen time.Duration) windowResult {
	per := make([]windowResult, len(clients))
	var wg sync.WaitGroup
	end := start.Add(time.Duration(rounds) * roundLen)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			res := &per[i]
			for ctx.Err() == nil {
				o := c.next()
				if (o.kind == opCursorNext || o.kind == opCursorClose) && c.cursor == "" {
					continue // the session's open failed and was counted then
				}
				t0 := time.Now()
				if !t0.Before(end) {
					c.pos-- // not sent: the next window starts with it
					return
				}
				_, err := c.do(ctx, o, "")
				t1 := time.Now()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				res.samples = append(res.samples, newSample(o.kind, start, t0, t1, roundLen))
			}
		}(i, c)
	}
	wg.Wait()
	var total windowResult
	for _, r := range per {
		total.samples = append(total.samples, r.samples...)
		total.failed += r.failed
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	return total
}

// getJSON fetches a GET endpoint (/stats) into v.
func getJSON(ctx context.Context, url string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
