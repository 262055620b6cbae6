package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// Failure handling: every shard HTTP call is classified so the failover
// layer knows whether a replica retry can help. Connection failures,
// 5xx statuses and undecodable bodies are the replica's (or network's)
// fault — retryable. 4xx statuses and SQL errors are deterministic
// verdicts about the request itself; re-running them on another replica
// would only repeat the answer.
const (
	// maxErrBodySnippet bounds how much of a non-2xx body is read into
	// the error message (shards answer JSON, but a misconfigured proxy
	// may return an HTML error page).
	maxErrBodySnippet = 512
	// maxDrainBytes caps the post-decode body drain that keeps the
	// keep-alive connection reusable. A well-behaved shard leaves at
	// most a newline; past the cap, closing (and re-dialing later) is
	// cheaper than downloading a runaway body.
	maxDrainBytes = 64 << 10

	// maxFailoverRounds bounds how many times the full replica set is
	// retried for one logical read before giving up.
	maxFailoverRounds = 2
	// retryBackoff{Base,Max} shape the capped exponential backoff slept
	// between failover rounds (never between replicas within a round —
	// switching replicas is itself the first remedy).
	retryBackoffBase = 5 * time.Millisecond
	retryBackoffMax  = 80 * time.Millisecond
	// replicaDown{Base,Max} shape the health window: after n consecutive
	// failures a replica is considered down for base<<(n-1), capped, and
	// ordered last when picking where to send reads.
	replicaDownBase = 100 * time.Millisecond
	replicaDownMax  = 5 * time.Second
)

type errClass int

const (
	classPermanent errClass = iota // 4xx, SQL errors, spent deadlines
	classRetryable                 // connect, 5xx, decode: a replica may succeed
)

// shardCallError is a classified shard-call failure.
type shardCallError struct {
	class  errClass
	status int // HTTP status when one was received; 0 otherwise
	msg    string
	cause  error
}

func (e *shardCallError) Error() string { return e.msg }
func (e *shardCallError) Unwrap() error { return e.cause }

// retryable reports whether err could come out differently on another
// replica. Unclassified errors (SQL errors surfaced from response
// bodies, contract violations) are treated as permanent.
func retryable(err error) bool {
	var sce *shardCallError
	if errors.As(err, &sce) {
		return sce.class == classRetryable
	}
	return false
}

// shardStatus returns the HTTP status a shard answered a failed call with
// (0 when it sent none). On the cursor endpoints, 404 means the shard no
// longer holds the cursor and 409 that its snapshot is dead.
func shardStatus(err error) int {
	var sce *shardCallError
	if errors.As(err, &sce) {
		return sce.status
	}
	return 0
}

// replica is one backend process serving a shard's partition. Requests
// and failures are counted per replica (tests assert result-cache hits
// issue zero shard HTTP calls through these counters; /stats exposes
// them per replica); health probes are not counted.
type replica struct {
	idx  int
	base string
	http *http.Client

	requests atomic.Uint64
	failures atomic.Uint64

	mu          sync.Mutex
	consecFails int
	downUntil   time.Time
}

// available reports whether the replica is outside its failure backoff
// window.
func (rep *replica) available(now time.Time) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return !now.Before(rep.downUntil)
}

// noteFailure marks a retryable failure: the replica is considered down
// for a capped exponential backoff window.
func (rep *replica) noteFailure() {
	rep.failures.Add(1)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails++
	down := replicaDownBase << (rep.consecFails - 1)
	if down > replicaDownMax || down <= 0 {
		down = replicaDownMax
	}
	rep.downUntil = time.Now().Add(down)
}

func (rep *replica) noteSuccess() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails = 0
	rep.downUntil = time.Time{}
}

// post sends one request body to the replica: every shard HTTP call
// goes through here. It carries the caller's context (so a router-side
// deadline cancels the in-flight call) and the trace ID header when one
// is set, counts the request, classifies a transport failure and hands
// the response to decodeShardResponse.
func (rep *replica) post(ctx context.Context, path, contentType, trace string, body []byte, out interface{}) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", contentType)
	if trace != "" {
		hreq.Header.Set(obs.TraceHeader, trace)
	}
	rep.requests.Add(1)
	resp, err := rep.http.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's budget ran out (or it went away); no replica
			// can answer within it, so don't fail over or blame health.
			return &shardCallError{class: classPermanent, msg: "shard call canceled: " + err.Error(), cause: err}
		}
		return &shardCallError{class: classRetryable, msg: "shard unreachable: " + err.Error(), cause: err}
	}
	return decodeShardResponse(resp, out)
}

// postJSON posts req, JSON-encoded.
func (rep *replica) postJSON(ctx context.Context, path, trace string, req interface{}, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return rep.post(ctx, path, "application/json", trace, body, out)
}

// decodeShardResponse consumes one shard HTTP response. A non-2xx with
// a JSON error body surfaces the shard's own message; anything else
// quotes a bounded body snippet instead of decoding garbage into a
// zero-value "success". The body is drained (capped) before close so the
// keep-alive connection stays reusable.
func decodeShardResponse(resp *http.Response, out interface{}) error {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrBodySnippet))
		class := classRetryable
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			class = classPermanent
		}
		// Shards report errors as JSON {"error": ...} with a non-2xx
		// status; surface the shard's own message when one is there.
		var er wire.ErrorResponse
		if json.Unmarshal(snippet, &er) == nil && er.Error != "" {
			return &shardCallError{class: class, status: resp.StatusCode, msg: er.Error}
		}
		return &shardCallError{class: class, status: resp.StatusCode,
			msg: fmt.Sprintf("shard replied %d: %q", resp.StatusCode, truncate(snippet, maxErrBodySnippet))}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &shardCallError{class: classRetryable, msg: "decoding shard response: " + err.Error(), cause: err}
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// page posts a query-shaped request — /query (one-shot or cursor open)
// or /cursor/next — and decodes the page the replica answers with, into
// the same struct its server encoded.
func (rep *replica) page(ctx context.Context, path, trace string, req *wire.Request) (*wire.QueryResponse, error) {
	var out wire.QueryResponse
	if err := rep.postJSON(ctx, path, trace, req, &out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("%s", out.Error)
	}
	return &out, nil
}

// cursorClose releases a shard-side ranked cursor. Best-effort: the
// shard's idle-cursor GC collects it anyway if this call is lost. The
// trace ID travels with the close so the shard's log line correlates
// with the pulls that preceded it.
func (rep *replica) cursorClose(trace, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var out struct {
		Error string `json:"error"`
	}
	if err := rep.postJSON(ctx, "/cursor/close", trace, &wire.Request{CursorID: id}, &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	return nil
}

// probeClient bounds health probes independently of the query client's
// timeout, so one hung shard cannot stall the router's /healthz and
// /stats endpoints for the full query timeout.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// healthy probes the replica's /healthz (not counted in the request
// counters: probes are the router's own traffic, not query fan-out).
func (rep *replica) healthy() bool {
	resp, err := probeClient.Get(rep.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
	return resp.StatusCode == http.StatusOK
}

// shardClient is the router's connection to one shard: a set of
// replicas holding identical copies of the shard's partition (the
// router sends every write to all of them; see Router.write).
// Reads go to one replica — preferring the last one that answered —
// with classified-error failover across the rest, and optionally a
// hedged second request when the preferred replica is slow. Reads carry
// their SQL text, so a replica needs no router state to answer one and a
// failover re-sends the same request to the next replica.
type shardClient struct {
	id       int
	replicas []*replica
	// hedgeDelay > 0 arms hedged reads: if the preferred replica has
	// not answered a merge pull within this delay, the same pull is
	// issued to the next replica and the first answer wins.
	hedgeDelay time.Duration
	// m counts failovers and hedges; nil in client-level unit tests.
	m *metrics

	preferred atomic.Int32
}

// addr names the shard in error messages: the preferred replica's base
// URL (the one the failing call most likely went to first).
func (sc *shardClient) addr() string {
	return sc.replicas[sc.preferredIdx()].base
}

func (sc *shardClient) preferredIdx() int {
	p := int(sc.preferred.Load())
	if p < 0 || p >= len(sc.replicas) {
		return 0
	}
	return p
}

// orderedReplicas returns the replicas in read-preference order: the
// preferred replica first, then the rest in index order, with replicas
// inside their failure-backoff window moved to the back. Every replica
// is always included — when the whole set looks down, trying is still
// better than refusing.
func (sc *shardClient) orderedReplicas() []*replica {
	now := time.Now()
	up := make([]*replica, 0, len(sc.replicas))
	var down []*replica
	n := len(sc.replicas)
	start := sc.preferredIdx()
	for i := 0; i < n; i++ {
		rep := sc.replicas[(start+i)%n]
		if rep.available(now) {
			up = append(up, rep)
		} else {
			down = append(down, rep)
		}
	}
	return append(up, down...)
}

func (sc *shardClient) noteFailover() {
	if sc.m != nil {
		sc.m.failovers.Inc()
	}
}

// failoverAcross tries call on each replica in order, classifying
// failures: permanent errors return immediately, retryable ones mark
// the replica down and advance to the next. When a whole round fails,
// the set is retried after a capped exponential backoff — a transient
// blip (shard restart, dropped packet) deserves a second look before
// the query is failed.
func failoverAcross[T any](ctx context.Context, sc *shardClient, reps []*replica,
	call func(context.Context, *replica) (T, error)) (T, error) {
	var zero T
	var lastErr error
	backoff := retryBackoffBase
	for round := 0; round < maxFailoverRounds; round++ {
		for attempt, rep := range reps {
			if err := ctx.Err(); err != nil {
				if lastErr != nil {
					return zero, lastErr
				}
				return zero, err
			}
			if round > 0 || attempt > 0 {
				// A previous attempt failed retryably and this call is its
				// retry on another replica (or a later round): a failover.
				sc.noteFailover()
			}
			out, err := call(ctx, rep)
			if err == nil {
				rep.noteSuccess()
				sc.preferred.Store(int32(rep.idx))
				return out, nil
			}
			if !retryable(err) {
				return zero, err
			}
			rep.noteFailure()
			lastErr = err
		}
		if round+1 < maxFailoverRounds {
			select {
			case <-ctx.Done():
				return zero, lastErr
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > retryBackoffMax {
				backoff = retryBackoffMax
			}
		}
	}
	return zero, lastErr
}

// shardRead executes one idempotent read against the shard's replica
// set. With hedging armed and a second replica present, the preferred
// replica races a hedge: if it has not answered within hedgeDelay, the
// same call goes to the next replica and the first success wins (the
// loser's request is canceled). Either way, retryable failures fall
// over to the remaining replicas.
func shardRead[T any](ctx context.Context, sc *shardClient,
	call func(context.Context, *replica) (T, error)) (T, error) {
	reps := sc.orderedReplicas()
	if sc.hedgeDelay <= 0 || len(reps) < 2 {
		return failoverAcross(ctx, sc, reps, call)
	}
	var zero T

	type raceResult struct {
		rep *replica
		out T
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan raceResult, 2) // buffered: the loser must not leak
	launch := func(rep *replica) {
		go func() {
			out, err := call(hctx, rep)
			results <- raceResult{rep, out, err}
		}()
	}
	launch(reps[0])
	timer := time.NewTimer(sc.hedgeDelay)
	defer timer.Stop()
	launched, hedged := 1, false
	var lastErr error
	for received := 0; received < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				hedged = true
				if sc.m != nil {
					sc.m.hedgesIssued.Inc()
				}
				launch(reps[1])
				launched = 2
			}
		case res := <-results:
			received++
			if res.err == nil {
				res.rep.noteSuccess()
				sc.preferred.Store(int32(res.rep.idx))
				if hedged && sc.m != nil {
					if res.rep == reps[1] {
						sc.m.hedgesWon.Inc()
					} else {
						sc.m.hedgesLost.Inc()
					}
				}
				return res.out, nil
			}
			if !retryable(res.err) {
				return zero, res.err
			}
			res.rep.noteFailure()
			lastErr = res.err
			if launched == 1 {
				// The preferred replica failed before the hedge fired:
				// plain failover to the second replica, not a hedge.
				timer.Stop()
				sc.noteFailover()
				launch(reps[1])
				launched = 2
			} else if received < launched {
				sc.noteFailover()
			}
		}
	}
	// Both raced replicas failed retryably; sweep the rest of the set.
	if len(reps) > 2 {
		sc.noteFailover()
		return failoverAcross(ctx, sc, reps[2:], call)
	}
	return zero, lastErr
}
