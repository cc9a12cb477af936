package coherence

import "flashfc/internal/timing"

// CacheState is the state of a line in a processor's second-level cache.
// There is no separate clean-exclusive state: as in FLASH's protocol, a line
// fetched exclusive is assumed modified, so the cache flush of coherence
// recovery writes back every exclusive line (§4.5: lines that are not dirty
// need no message; all others carry the only valid copy).
type CacheState uint8

const (
	// CacheShared is a read-only copy; memory at the home is valid.
	CacheShared CacheState = iota
	// CacheExclusive is a writable copy; the cache holds the only valid
	// copy of the line.
	CacheExclusive
)

// CacheLine is one resident line.
type CacheLine struct {
	State CacheState
	// walk is the number of the last ForEach walk that visited the line.
	// It sits in what would be padding: the line stays 16 bytes.
	walk  uint32
	Token uint64
}

// Cache is a node's second-level cache, modeled as a fully-associative
// FIFO-replacement set of lines. CapacityBytes bounds residency; the paper's
// experiments use 1 MB (Table 5.1).
//
// Lines are carved from chunks rather than allocated one by one, and only
// while the cache fills: an install into a full cache stores the new line
// in the line it evicts, and hands the victim back by value. A cache that
// streams many more lines than it holds, as the verify sweep's reader
// does, carves its capacity once. A *CacheLine is therefore good only
// until the next Install.
//
// A fork copies its cache eagerly (Clone), but the P4 flush empties it and
// Flush then releases the index, FIFO and chunk, so a finished forked
// machine holds only what its run installed after recovery, not a
// warm-sized map. An empty cache has no index until its first Install, or
// until Reserve sizes one for the installs a fill or the verify sweep is
// about to make.
type Cache struct {
	capacity int // lines
	lines    map[Addr]*CacheLine
	// fifo[head:] is the insertion order for eviction; entries of lines
	// invalidated since are skipped when they reach the head.
	fifo  []Addr
	head  int
	chunk []CacheLine // lines are carved from its spare capacity
	walks uint32      // ForEach walks so far (CacheLine.walk)
}

// cacheChunk is the number of lines carved per allocation.
const cacheChunk = 32

// newLine carves a zeroed line.
func (c *Cache) newLine() *CacheLine {
	if len(c.chunk) == cap(c.chunk) {
		c.chunk = make([]CacheLine, 0, cacheChunk)
	}
	c.chunk = c.chunk[:len(c.chunk)+1]
	return &c.chunk[len(c.chunk)-1]
}

// NewCache returns a cache holding capacityBytes worth of 128-byte lines.
func NewCache(capacityBytes uint64) *Cache {
	return &Cache{capacity: int(capacityBytes / timing.LineSize)}
}

// Reserve sizes an empty cache's index and FIFO for n installs, at most
// its capacity, so a caller that knows how many lines it is about to
// install does not grow them a step at a time. It is only a hint: it changes
// nothing on a cache that holds lines or has FIFO entries.
func (c *Cache) Reserve(n int) {
	n = min(n, c.capacity)
	if n <= 0 || len(c.lines) > 0 || len(c.fifo) > 0 {
		return
	}
	c.lines = make(map[Addr]*CacheLine, n)
	c.fifo = make([]Addr, 0, n)
}

// CapacityLines returns the cache size in lines.
func (c *Cache) CapacityLines() int { return c.capacity }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return len(c.lines) }

// Lookup returns the resident line or nil.
func (c *Cache) Lookup(a Addr) *CacheLine { return c.lines[a.Line()] }

// Install places a line into the cache. If the cache is full it evicts the
// oldest resident line first and returns its address and contents, with ok
// set, so the caller can issue a writeback for an exclusive victim; the new
// line takes the victim's storage.
func (c *Cache) Install(a Addr, state CacheState, token uint64) (victim Addr, evicted CacheLine, ok bool) {
	a = a.Line()
	if l, hit := c.lines[a]; hit {
		l.State = state
		l.Token = token
		return 0, CacheLine{}, false
	}
	var l *CacheLine
	if len(c.lines) >= c.capacity {
		if victim, l = c.evictOldest(); l != nil {
			evicted, ok = *l, true
		}
	}
	if l == nil {
		l = c.newLine()
	}
	*l = CacheLine{State: state, Token: token}
	if c.lines == nil {
		c.lines = make(map[Addr]*CacheLine)
	}
	c.lines[a] = l
	if c.head > 0 && len(c.fifo) == cap(c.fifo) && c.head >= len(c.fifo)/2 {
		// Reclaim the consumed front in place instead of growing: at
		// capacity every install evicts, so the live span stays bounded.
		n := copy(c.fifo, c.fifo[c.head:])
		c.fifo, c.head = c.fifo[:n], 0
	}
	c.fifo = append(c.fifo, a)
	return victim, evicted, ok
}

func (c *Cache) evictOldest() (Addr, *CacheLine) {
	for c.head < len(c.fifo) {
		a := c.fifo[c.head]
		c.head++
		if l, ok := c.lines[a]; ok {
			delete(c.lines, a)
			return a, l
		}
	}
	return 0, nil
}

// Invalidate removes a line (e.g. on an invalidation or recall) and returns
// it, or nil if not resident.
func (c *Cache) Invalidate(a Addr) *CacheLine {
	a = a.Line()
	l := c.lines[a]
	delete(c.lines, a)
	return l
}

// Flush empties the cache and returns every line that must be written back
// home (all exclusive lines), as FlushEach visits them.
func (c *Cache) Flush() (addrs []Addr, lines []*CacheLine) {
	c.FlushEach(func(a Addr, l *CacheLine) {
		addrs = append(addrs, a)
		lines = append(lines, l)
	})
	return addrs, lines
}

// FlushEach empties the cache and hands every line that must be written
// back home (all exclusive lines) to wb, in deterministic FIFO order, each
// exactly once with its latest token; wb may be nil. Shared lines are
// dropped silently: the home copy is valid (§4.5). The emptied index, FIFO
// and chunk are released rather than kept at their warm size: a campaign
// holds every finished machine of a batch, and a flushed cache that refills
// regrows them from empty, its index from the next Install.
func (c *Cache) FlushEach(wb func(a Addr, l *CacheLine)) {
	for _, a := range c.fifo[c.head:] {
		l, ok := c.lines[a]
		if !ok {
			continue // invalidated, or an older entry of a re-installed line
		}
		delete(c.lines, a)
		if l.State == CacheExclusive && wb != nil {
			wb(a, l)
		}
	}
	c.lines, c.fifo, c.head, c.chunk = nil, nil, 0, nil
}

// Clone returns a deep copy of the cache. Unlike memory and directory
// images, cache contents are copied eagerly when forking: every resident
// line is mutable protocol state, and caches are bounded by L2Bytes.
func (c *Cache) Clone() *Cache {
	n := &Cache{
		capacity: c.capacity,
		lines:    make(map[Addr]*CacheLine, len(c.lines)),
		fifo:     append([]Addr(nil), c.fifo[c.head:]...),
		chunk:    make([]CacheLine, 0, len(c.lines)),
		walks:    c.walks,
	}
	for a, l := range c.lines {
		nl := n.newLine()
		*nl = *l
		n.lines[a] = nl
	}
	return n
}

// ForEach visits each resident line once, at its oldest FIFO entry: the
// order FlushEach writes lines back in. A line invalidated and installed
// again has an entry for each install; the walk number stamped on the line
// at its first visit skips the later ones. fn may invalidate the line it
// is handed, but must not install.
func (c *Cache) ForEach(fn func(a Addr, l *CacheLine)) {
	if c.walks++; c.walks == 0 { // wrapped: clear the stamps so none matches
		for _, l := range c.lines {
			l.walk = 0
		}
		c.walks = 1
	}
	for _, a := range c.fifo[c.head:] {
		if l, ok := c.lines[a]; ok && l.walk != c.walks {
			l.walk = c.walks
			fn(a, l)
		}
	}
}
