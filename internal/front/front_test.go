package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

type row struct{ obs.TemplateRow }

// stmt is a prepared statement of the test daemon.
type stmt string

func (s stmt) Normalized() string { return string(s) }
func (s stmt) NumParams() int     { return 0 }
func (s stmt) IsQuery() bool      { return true }

// stream is a ranked stream of the test daemon: rows 1, 2, 3, ...
// without end. fail, when set, fails the next pull.
type stream struct {
	mu     sync.Mutex
	pulled int
	fail   error
	closed chan struct{}
}

func newStream() *stream { return &stream{closed: make(chan struct{})} }

var errDead = errors.New("stream is dead")

// newDaemon builds a front over test streams and serves it, with a /query
// that opens a cursor on every request; opened receives each stream.
func newDaemon(t *testing.T, ttl time.Duration) (*Front[stmt, *stream], http.Handler, chan *stream) {
	t.Helper()
	m := obs.NewMetrics[row]("test")
	f := New(Spec[stmt, *stream]{
		Prepare: func(src string) (stmt, error) {
			if strings.HasPrefix(src, "bad") {
				return "", fmt.Errorf("cannot prepare %q", src)
			}
			return stmt(src), nil
		},
		Page: func(_ context.Context, w http.ResponseWriter, _ *obs.Trace, id, _ string, s *stream, skip, n int) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.fail; err != nil {
				s.fail = nil
				return err
			}
			s.pulled += skip
			wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"cursor_id": id, "offset": s.pulled, "n": n})
			s.pulled += n
			return nil
		},
		Pulled: func(s *stream) int { return s.pulled },
		Close:  func(s *stream, _ *obs.Trace) { close(s.closed) },
		Dead:   func(err error) bool { return errors.Is(err, errDead) },
		// Any other pull error is the test daemon's own 500.
		PullStatus:   http.StatusInternalServerError,
		CursorPrefix: "cur",
		TTL:          ttl,
		Metrics:      m,
	})
	opened := make(chan *stream, 16)
	mux := http.NewServeMux()
	f.Mount(mux)
	mux.HandleFunc("/query", wire.Post(func(w http.ResponseWriter, r *http.Request, req *wire.Request) {
		st, code, err := f.Resolve(req)
		if err != nil {
			m.Fail(w, code, "", err.Error())
			return
		}
		s := newStream()
		if st == "fail first" {
			s.fail = errors.New("first page failed")
		}
		opened <- s
		f.Open(w, r, req, obs.NewTrace(""), st.Normalized(), s, PageSize(req, 7))
	}))
	return f, mux, opened
}

// post serves one request and decodes its JSON answer.
func post(t *testing.T, h http.Handler, path string, req map[string]interface{}) (int, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: %v (%s)", path, err, rec.Body)
	}
	return rec.Code, out
}

func TestPageSize(t *testing.T) {
	for _, tc := range []struct{ fetch, k, want int }{
		{0, 0, DefaultPage}, {0, 5, 5}, {3, 5, 3}, {3, 0, 3},
	} {
		if got := PageSize(&wire.Request{Fetch: tc.fetch}, tc.k); got != tc.want {
			t.Errorf("PageSize(fetch=%d, k=%d) = %d, want %d", tc.fetch, tc.k, got, tc.want)
		}
	}
}

// TestCursorPaging walks one cursor: the page size defaults to the
// statement's k, after_rank skips forward but never back, and a closed
// cursor's stream is released and its id unknown afterwards.
func TestCursorPaging(t *testing.T) {
	_, h, opened := newDaemon(t, 0)
	code, page := post(t, h, "/query", map[string]interface{}{"sql": "q"})
	s := <-opened
	if code != http.StatusOK || page["offset"] != 0.0 || page["n"] != 7.0 {
		t.Fatalf("open: %d %v, want offset 0 and the k=7 default page", code, page)
	}
	id := page["cursor_id"].(string)
	if _, page = post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": id, "after_rank": 10, "fetch": 2}); page["offset"] != 10.0 {
		t.Errorf("after_rank 10: %v, want offset 10", page)
	}
	code, page = post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": id, "after_rank": 3})
	if code != http.StatusBadRequest || !strings.Contains(page["error"].(string), "cannot rewind") {
		t.Errorf("rewind: %d %v, want 400", code, page)
	}
	if code, _ = post(t, h, "/cursor/close", map[string]interface{}{"cursor_id": id}); code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	<-s.closed
	if code, _ = post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": id}); code != http.StatusNotFound {
		t.Errorf("next after close: %d, want 404", code)
	}
}

// TestPullFailures: a dead stream answers 409 and loses its cursor; any
// other error answers the daemon's status and keeps it; a failed first
// page closes the cursor it would have registered.
func TestPullFailures(t *testing.T) {
	f, h, opened := newDaemon(t, 0)
	_, page := post(t, h, "/query", map[string]interface{}{"sql": "q"})
	s := <-opened
	id := page["cursor_id"].(string)

	s.fail = errors.New("transient")
	if code, _ := post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": id}); code != http.StatusInternalServerError {
		t.Errorf("transient failure: %d, want 500", code)
	}
	s.fail = errDead
	if code, _ := post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": id}); code != http.StatusConflict {
		t.Errorf("dead stream: %d, want 409", code)
	}
	<-s.closed
	if n := f.Cursors().Len(); n != 0 {
		t.Errorf("open cursors after a dead pull: %d, want 0", n)
	}

	if code, _ := post(t, h, "/query", map[string]interface{}{"sql": "fail first"}); code != http.StatusInternalServerError {
		t.Errorf("failed first page: %d, want 500", code)
	}
	<-(<-opened).closed
	if n := f.Cursors().Len(); n != 0 {
		t.Errorf("open cursors after a failed first page: %d, want 0", n)
	}
}

// TestEvictionReleases: a cursor the TTL collects has its stream
// released (asynchronously), and its id answers "expired".
func TestEvictionReleases(t *testing.T) {
	f, h, opened := newDaemon(t, time.Minute)
	_, page := post(t, h, "/query", map[string]interface{}{"sql": "q"})
	s := <-opened
	f.Cursors().Sweep(time.Now().Add(2 * time.Minute))
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted stream was never released")
	}
	code, out := post(t, h, "/cursor/next", map[string]interface{}{"cursor_id": page["cursor_id"]})
	if code != http.StatusNotFound || !strings.Contains(out["error"].(string), "expired") {
		t.Errorf("next after eviction: %d %v, want 404 expired", code, out)
	}
}

// TestSessions: statements are visible only in the session that
// prepared them, a session holds at most MaxStmtsPerSession, and open
// sessions are capped at MaxOpen.
func TestSessions(t *testing.T) {
	_, h, _ := newDaemon(t, 0)
	_, a := post(t, h, "/session", nil)
	_, b := post(t, h, "/session", nil)
	_, prep := post(t, h, "/prepare", map[string]interface{}{"session_id": a["session_id"], "sql": "q"})
	if code, _ := post(t, h, "/query", map[string]interface{}{"session_id": b["session_id"], "stmt_id": prep["stmt_id"]}); code != http.StatusNotFound {
		t.Errorf("stmt_id in another session: %d, want 404", code)
	}
	if code, _ := post(t, h, "/prepare", map[string]interface{}{"sql": "bad q"}); code != http.StatusBadRequest {
		t.Errorf("unpreparable sql: %d, want 400", code)
	}
	for i := 1; i < MaxStmtsPerSession; i++ {
		post(t, h, "/prepare", map[string]interface{}{"session_id": a["session_id"], "sql": "q"})
	}
	if code, _ := post(t, h, "/prepare", map[string]interface{}{"session_id": a["session_id"], "sql": "q"}); code != http.StatusTooManyRequests {
		t.Errorf("statement past the cap: %d, want 429", code)
	}
	for i := 2; i < MaxOpen; i++ {
		post(t, h, "/session", nil)
	}
	if code, _ := post(t, h, "/session", nil); code != http.StatusTooManyRequests {
		t.Errorf("session past the cap: %d, want 429", code)
	}
	if code, _ := post(t, h, "/session/close", map[string]interface{}{"session_id": b["session_id"]}); code != http.StatusOK {
		t.Errorf("session close: %d", code)
	}
	if code, _ := post(t, h, "/session/close", map[string]interface{}{"session_id": b["session_id"]}); code != http.StatusNotFound {
		t.Errorf("second session close: %d, want 404", code)
	}
}

// TestConcurrentPulls: pulls of one cursor from several goroutines are
// serialized, so every page starts where another ended, and a close
// racing them releases the stream once.
func TestConcurrentPulls(t *testing.T) {
	_, h, opened := newDaemon(t, 0)
	_, page := post(t, h, "/query", map[string]interface{}{"sql": "q", "fetch": 3})
	s := <-opened
	id := page["cursor_id"]
	var mu sync.Mutex
	offsets := map[float64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(map[string]interface{}{"cursor_id": id})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cursor/next", bytes.NewReader(body)))
				var out map[string]interface{}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					t.Errorf("pull: %d %s", rec.Code, rec.Body)
					return
				}
				mu.Lock()
				offsets[out["offset"].(float64)] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i := 1; i <= 40; i++ {
		if !offsets[float64(3*i)] {
			t.Errorf("no page started at offset %d", 3*i)
		}
	}
	post(t, h, "/cursor/close", map[string]interface{}{"cursor_id": id})
	<-s.closed
}
