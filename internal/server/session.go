package server

import (
	"fmt"
	"sync"

	"ranksql"
)

// Session holds per-connection state: the prepared statements a client
// has registered. Sessions are cheap; a client typically creates one,
// prepares its query templates once, and executes them many times. They
// live in an idle.Table: session "" (the default session) is pinned
// there and serves sessionless clients; the rest expire under the
// session TTL.
type Session struct {
	mu       sync.Mutex
	stmts    map[string]*ranksql.Stmt
	nextStmt uint64
}

func newSession() *Session { return &Session{stmts: map[string]*ranksql.Stmt{}} }

// maxStmtsPerSession bounds how many prepared statements one session may
// hold at once, so clients that never /stmt/close (notably against the
// unclosable default session) cannot grow server memory without limit.
const maxStmtsPerSession = 1024

// addStmt registers a prepared statement and returns its id; ok is false
// when the session already holds maxStmtsPerSession.
func (s *Session) addStmt(st *ranksql.Stmt) (id string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.stmts) >= maxStmtsPerSession {
		return "", false
	}
	s.nextStmt++
	id = fmt.Sprintf("stmt-%d", s.nextStmt)
	s.stmts[id] = st
	return id, true
}

// stmt looks up a prepared statement.
func (s *Session) stmt(id string) (*ranksql.Stmt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stmts[id]
	return st, ok
}

// closeStmt deallocates one prepared statement.
func (s *Session) closeStmt(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stmts[id]; !ok {
		return false
	}
	delete(s.stmts, id)
	return true
}
