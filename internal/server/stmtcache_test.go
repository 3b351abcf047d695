package server

import "testing"

// TestStmtCacheLRU pins the cache's replacement rule: get promotes, put
// evicts from the tail and says how many it evicted, and a put of a text
// already cached keeps the cached entry and promotes it.
func TestStmtCacheLRU(t *testing.T) {
	c := newStmtCache(2)
	put := func(sqlText string) (*stmtEntry, int) {
		return c.put(&stmtEntry{sqlText: sqlText})
	}
	has := func(sqlText string) bool {
		_, ok := c.get(sqlText)
		return ok
	}
	a, _ := put("a")
	if _, n := put("b"); n != 0 {
		t.Fatalf("put into a cache with room evicted %d", n)
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatalf("get(a) = %p, %v; want the entry put", got, ok)
	}
	// get promoted "a", so "b" is the tail.
	cEnt, n := put("c")
	if n != 1 {
		t.Fatalf("put into a full cache evicted %d, want 1", n)
	}
	if has("b") || c.size() != 2 {
		t.Fatalf("the tail survived a full put: b cached = %v, size %d", has("b"), c.size())
	}
	// Order is now a, c. A duplicate put of "c" returns the cached entry,
	// evicts nothing and promotes it, so the next eviction takes "a".
	c.get("a")
	if got, n := put("c"); got != cEnt || n != 0 {
		t.Fatalf("duplicate put returned a new entry (%v) or evicted %d", got != cEnt, n)
	}
	if _, n := put("d"); n != 1 || has("a") || !has("c") || !has("d") {
		t.Fatalf("eviction after a duplicate put: evicted %d; want a gone, c and d cached", n)
	}
}
