package coherence

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"flashfc/internal/timing"
)

// refCache is the cache's reference model: a map of resident lines and an
// append-only FIFO of every install, whose entries of lines invalidated
// since are skipped when they reach the front. A line invalidated and
// installed again has two entries, and the older one decides when it is
// evicted, where FlushEach writes it back and where ForEach visits it:
// each walk visits a line once.
type refCache struct {
	capacity int
	lines    map[Addr]CacheLine
	fifo     []Addr
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, lines: map[Addr]CacheLine{}}
}

type refVictim struct {
	addr Addr
	line CacheLine
	ok   bool
}

func (r *refCache) install(a Addr, state CacheState, token uint64) refVictim {
	if _, ok := r.lines[a]; ok {
		r.lines[a] = CacheLine{State: state, Token: token}
		return refVictim{}
	}
	var v refVictim
	if len(r.lines) >= r.capacity {
		for len(r.fifo) > 0 {
			old := r.fifo[0]
			r.fifo = r.fifo[1:]
			if l, ok := r.lines[old]; ok {
				delete(r.lines, old)
				v = refVictim{old, l, true}
				break
			}
		}
	}
	r.lines[a] = CacheLine{State: state, Token: token}
	r.fifo = append(r.fifo, a)
	return v
}

// sameLine compares what a line holds, its state and token.
func sameLine(l, want CacheLine) bool { return l.State == want.State && l.Token == want.Token }

type visit struct {
	addr Addr
	line CacheLine
}

func (r *refCache) forEach() []visit {
	var out []visit
	seen := map[Addr]bool{}
	for _, a := range r.fifo {
		if l, ok := r.lines[a]; ok && !seen[a] {
			seen[a] = true
			out = append(out, visit{a, l})
		}
	}
	return out
}

func (r *refCache) flush() []visit {
	var out []visit
	for _, a := range r.fifo {
		l, ok := r.lines[a]
		if !ok {
			continue
		}
		delete(r.lines, a)
		if l.State == CacheExclusive {
			out = append(out, visit{a, l})
		}
	}
	r.fifo = nil
	return out
}

func cacheVisits(c *Cache) []visit {
	var out []visit
	c.ForEach(func(a Addr, l *CacheLine) { out = append(out, visit{a, *l}) })
	return out
}

func sameVisits(got, want []visit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d visits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].addr != want[i].addr || !sameLine(got[i].line, want[i].line) {
			return fmt.Errorf("visit %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// The cache against its reference model on seeded random sequences, at
// one line, at three and at 512. Addresses are drawn from a pool one and
// a half times the capacity, so installs hit, evict, and re-install lines
// that an Invalidate left with a stale FIFO entry. Every Install's victim
// (address, state, token and whether there was one), every Lookup and
// Invalidate, the ForEach order along the way and the FlushEach order at
// the end must match; after a flush the cache runs on. An install at
// capacity stores its line in the victim's storage, so the victim must be
// handed back as it was before the install, not as what replaced it. A
// line carries ForEach's walk stamp in its padding, so it stays 16 bytes.
func TestCacheMatchesReferenceModel(t *testing.T) {
	if got := unsafe.Sizeof(CacheLine{}); got != 16 {
		t.Fatalf("CacheLine is %d bytes, want 16", got)
	}
	for _, capacity := range []int{1, 3, 512} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := NewCache(uint64(capacity) * timing.LineSize)
			ref := newRefCache(capacity)
			pool := capacity + capacity/2 + 1
			ops := 40 * pool
			fail := func(i int, format string, args ...any) {
				t.Helper()
				t.Fatalf("capacity %d, seed %d, op %d: %s", capacity, seed, i, fmt.Sprintf(format, args...))
			}
			for round := 0; round < 2; round++ {
				for i := 0; i < ops; i++ {
					a := Addr(rng.Intn(pool)) * timing.LineSize
					switch k := rng.Intn(10); {
					case k < 6:
						st, tok := CacheState(rng.Intn(2)), rng.Uint64()
						v, l, ok := c.Install(a+Addr(rng.Intn(timing.LineSize)), st, tok)
						got, want := refVictim{v, l, ok}, ref.install(a, st, tok)
						if got.addr != want.addr || got.ok != want.ok || !sameLine(got.line, want.line) {
							fail(i, "Install(%v) evicted %+v, want %+v", a, got, want)
						}
					case k < 8:
						want, resident := ref.lines[a]
						switch l := c.Lookup(a); {
						case !resident && l != nil:
							fail(i, "Lookup(%v) = %+v, want nothing", a, *l)
						case resident && (l == nil || !sameLine(*l, want)):
							fail(i, "Lookup(%v) = %v, want %+v", a, l, want)
						}
					default:
						want, resident := ref.lines[a]
						delete(ref.lines, a)
						switch l := c.Invalidate(a); {
						case !resident && l != nil:
							fail(i, "Invalidate(%v) = %+v, want nothing", a, *l)
						case resident && (l == nil || !sameLine(*l, want)):
							fail(i, "Invalidate(%v) = %v, want %+v", a, l, want)
						}
					}
					if c.Len() != len(ref.lines) {
						fail(i, "Len %d, want %d", c.Len(), len(ref.lines))
					}
					if i%(97+pool) == 0 {
						if err := sameVisits(cacheVisits(c), ref.forEach()); err != nil {
							fail(i, "ForEach: %v", err)
						}
					}
				}
				if err := sameVisits(cacheVisits(c), ref.forEach()); err != nil {
					t.Fatalf("capacity %d, seed %d, round %d: ForEach: %v", capacity, seed, round, err)
				}
				var flushed []visit
				c.FlushEach(func(a Addr, l *CacheLine) { flushed = append(flushed, visit{a, *l}) })
				if err := sameVisits(flushed, ref.flush()); err != nil {
					t.Fatalf("capacity %d, seed %d, round %d: FlushEach: %v", capacity, seed, round, err)
				}
				if c.Len() != 0 {
					t.Fatalf("capacity %d, seed %d, round %d: %d lines after the flush", capacity, seed, round, c.Len())
				}
			}
		}
	}
}
