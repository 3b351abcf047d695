package server

import (
	"container/list"
	"sync"

	"adskip"
	"adskip/internal/engine"
)

// stmtEntry is one cached statement: the SQL text it was built from, the
// table it binds to (whose QueryContext is the DB's front door, over an
// engine or a shard manager alike), and the planned query. Planning
// resolves columns by name, so a cached plan stays valid across appends;
// schema is immutable per table, so it cannot go stale.
type stmtEntry struct {
	sqlText string
	fp      string // query fingerprint; workload attribution key
	tbl     *adskip.Table
	q       engine.Query
}

// stmtCache is the server-wide statement cache: an LRU keyed by SQL
// text, which every "query" request consults first. It is shared across
// sessions, so a hot query text parsed by one connection is a cache hit
// for every other.
type stmtCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *stmtEntry
	bySQL map[string]*list.Element
}

func newStmtCache(max int) *stmtCache {
	return &stmtCache{
		max:   max,
		order: list.New(),
		bySQL: make(map[string]*list.Element),
	}
}

// get returns the entry for sqlText, promoting it to most recently used.
func (c *stmtCache) get(sqlText string) (*stmtEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bySQL[sqlText]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*stmtEntry), true
}

// put inserts an entry, evicting from the LRU tail if the cache is full,
// and reports how many entries were evicted by this insert. If the SQL
// text is already cached (raced by two sessions), the existing entry
// wins and is returned.
func (c *stmtCache) put(ent *stmtEntry) (*stmtEntry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.bySQL[ent.sqlText]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*stmtEntry), 0
	}
	evicted := 0
	for c.order.Len() >= c.max {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*stmtEntry)
		c.order.Remove(tail)
		delete(c.bySQL, old.sqlText)
		evicted++
	}
	el := c.order.PushFront(ent)
	c.bySQL[ent.sqlText] = el
	return ent, evicted
}

// size reports the current entry count.
func (c *stmtCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
