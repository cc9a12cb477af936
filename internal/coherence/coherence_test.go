package coherence

import (
	"testing"
	"testing/quick"

	"flashfc/internal/timing"
)

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.Line() != 0x12300 {
		t.Errorf("Line = %v", a.Line())
	}
	if a.Page() != 0x12000 {
		t.Errorf("Page = %v", a.Page())
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestAddrSpace(t *testing.T) {
	s := AddrSpace{Nodes: 8, MemBytes: 1 << 20, VectorTop: 0x4000}
	if s.Home(0) != 0 || s.Home(1<<20) != 1 || s.Home(7<<20+5) != 7 {
		t.Fatal("Home broken")
	}
	if s.Base(3) != 3<<20 {
		t.Fatal("Base broken")
	}
	if !s.Contains(8<<20 - 1) {
		t.Fatal("Contains upper bound broken")
	}
	if s.Contains(8 << 20) {
		t.Fatal("Contains should reject out-of-range")
	}
	if s.Lines() != (1<<20)/timing.LineSize {
		t.Fatal("Lines broken")
	}
	// Vector remap: low addresses become node-local (§3.2).
	if got := s.Remap(3, 0x100); got != s.Base(3)+0x100 {
		t.Fatalf("Remap = %v", got)
	}
	if got := s.Remap(3, 0x5000); got != 0x5000 {
		t.Fatalf("Remap above VectorTop should be identity, got %v", got)
	}
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(130)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	for _, id := range []int{0, 63, 64, 129} {
		s.Add(id)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if !s.Has(129) || s.Has(128) {
		t.Fatal("Has broken")
	}
	var seen []int
	s.ForEach(func(id int) { seen = append(seen, id) })
	want := []int{0, 63, 64, 129}
	if len(seen) != len(want) {
		t.Fatalf("ForEach = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", seen, want)
		}
	}
	c := s.Clone()
	s.Remove(63)
	if s.Has(63) || !c.Has(63) {
		t.Fatal("Remove/Clone broken")
	}
}

func TestQuickNodeSetAddRemove(t *testing.T) {
	f := func(ids []uint8) bool {
		s := NewNodeSet(256)
		ref := map[int]bool{}
		for _, id := range ids {
			if ref[int(id)] {
				s.Remove(int(id))
				delete(ref, int(id))
			} else {
				s.Add(int(id))
				ref[int(id)] = true
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for id := range ref {
			if !s.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryInitialAndWrite(t *testing.T) {
	m := NewMemory(1<<20, 1<<20)
	a := Addr(1<<20 + 256)
	if !m.Owns(a) || m.Owns(0) || m.Owns(2<<20) {
		t.Fatal("Owns broken")
	}
	if m.Read(a) != InitialToken(a) {
		t.Fatal("initial token mismatch")
	}
	m.Write(a+5, 42) // unaligned write goes to the line
	if m.Read(a) != 42 {
		t.Fatal("write not visible")
	}
	if m.TouchedLines() != 1 {
		t.Fatal("sparse storage broken")
	}
}

func TestCacheInstallLookupInvalidate(t *testing.T) {
	c := NewCache(4 * timing.LineSize)
	if c.CapacityLines() != 4 {
		t.Fatal("capacity wrong")
	}
	c.Install(0, CacheShared, 1)
	c.Install(128, CacheExclusive, 2)
	if c.Len() != 2 {
		t.Fatal("Len wrong")
	}
	if l := c.Lookup(130); l == nil || l.Token != 2 {
		t.Fatal("Lookup by interior address broken")
	}
	if l := c.Invalidate(0); l == nil || l.Token != 1 {
		t.Fatal("Invalidate broken")
	}
	if c.Lookup(0) != nil {
		t.Fatal("line still resident after invalidate")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2 * timing.LineSize)
	c.Install(0, CacheExclusive, 1)
	c.Install(128, CacheShared, 2)
	victim, ev, ok := c.Install(256, CacheShared, 3)
	if !ok || victim != 0 || ev.State != CacheExclusive || ev.Token != 1 {
		t.Fatalf("eviction broken: victim=%v ev=%+v ok=%v", victim, ev, ok)
	}
	if c.Len() != 2 {
		t.Fatal("Len after eviction wrong")
	}
	// Reinstalling a resident line must not evict.
	if _, _, ok := c.Install(128, CacheExclusive, 9); ok {
		t.Fatal("reinstall evicted")
	}
	if c.Lookup(128).Token != 9 {
		t.Fatal("reinstall did not update")
	}
}

func TestCacheFlushReturnsOnlyExclusive(t *testing.T) {
	c := NewCache(8 * timing.LineSize)
	c.Install(0, CacheShared, 1)
	c.Install(128, CacheExclusive, 2)
	c.Install(256, CacheExclusive, 3)
	addrs, lines := c.Flush()
	if len(addrs) != 2 || len(lines) != 2 {
		t.Fatalf("flush returned %d lines, want 2", len(addrs))
	}
	if addrs[0] != 128 || addrs[1] != 256 {
		t.Fatalf("flush order wrong: %v", addrs)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after flush")
	}
}

// A line invalidated and re-installed has two FIFO entries; the flush must
// write it back once (at its older FIFO position) with its latest token,
// and leave the cache usable.
func TestCacheFlushWritesBackOnceWithLatestToken(t *testing.T) {
	c := NewCache(8 * timing.LineSize)
	c.Install(0, CacheExclusive, 1)
	c.Install(128, CacheExclusive, 2)
	c.Invalidate(0)
	c.Install(0, CacheExclusive, 3)
	addrs, lines := c.Flush()
	if len(addrs) != 2 || addrs[0] != 0 || addrs[1] != 128 {
		t.Fatalf("flush wrote back %v, want [0x0 0x80]", addrs)
	}
	if lines[0].Token != 3 || lines[1].Token != 2 {
		t.Fatalf("flush tokens %d, %d; want 3, 2", lines[0].Token, lines[1].Token)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after flush")
	}
	c.Install(256, CacheShared, 4)
	if l := c.Lookup(256); l == nil || l.Token != 4 || c.Len() != 1 {
		t.Fatal("a flushed cache must accept new lines")
	}
}

func TestCacheForEach(t *testing.T) {
	c := NewCache(8 * timing.LineSize)
	c.Install(0, CacheShared, 1)
	c.Install(128, CacheExclusive, 2)
	c.Invalidate(0)
	n := 0
	c.ForEach(func(a Addr, l *CacheLine) { n++ })
	if n != 1 {
		t.Fatalf("ForEach visited %d, want 1", n)
	}
}

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory(8)
	if d.Lookup(0) != nil {
		t.Fatal("empty dir should return nil")
	}
	e := d.Get(0)
	if e.State != DirInvalid {
		t.Fatal("new entry should be invalid")
	}
	e.State = DirShared
	e.Sharers.Add(3)
	if d.Len() != 1 {
		t.Fatal("Len wrong")
	}
	e.State = DirInvalid
	d.Release(0)
	if d.Len() != 0 {
		t.Fatal("Release should drop invalid entries")
	}
}

func TestDirectoryScan(t *testing.T) {
	d := NewDirectory(8)
	ex := d.Get(0)
	ex.State = DirExclusive
	ex.Owner = 5
	sh := d.Get(128)
	sh.State = DirShared
	sh.Sharers.Add(2)
	pr := d.Get(256)
	pr.State = DirPendingRecall
	pr.Owner = 5
	pi := d.Get(384)
	pi.State = DirPendingInval
	pi.AcksLeft = 2
	inc := d.Get(512)
	inc.State = DirIncoherent

	lost := d.Scan()
	if len(lost) != 2 {
		t.Fatalf("lost = %v, want 2 lines", lost)
	}
	if !d.Incoherent(0) || !d.Incoherent(256) {
		t.Fatal("exclusive/pending-recall should become incoherent")
	}
	if d.Incoherent(128) || d.Incoherent(384) {
		t.Fatal("shared/pending-inval must not be marked")
	}
	if d.Lookup(128) != nil || d.Lookup(384) != nil {
		t.Fatal("reset entries should be dropped")
	}
	if !d.Incoherent(512) {
		t.Fatal("already-incoherent line should stay")
	}
}

func TestDirectoryScrub(t *testing.T) {
	d := NewDirectory(8)
	e := d.Get(0)
	e.State = DirIncoherent
	if !d.Scrub(0) {
		t.Fatal("scrub should succeed on incoherent line")
	}
	if d.Lookup(0) != nil {
		t.Fatal("scrubbed line should be invalid")
	}
	if d.Scrub(128) {
		t.Fatal("scrub of clean line should report false")
	}
}

func TestDirStateStrings(t *testing.T) {
	for s := DirInvalid; s <= DirIncoherent+1; s++ {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	if !DirPendingRecall.Locked() || !DirPendingInval.Locked() || DirShared.Locked() {
		t.Fatal("Locked broken")
	}
}

func TestMessageHelpers(t *testing.T) {
	m := &Message{Type: MsgPut, Addr: 128, Req: 3, Seq: 9, Data: 77}
	if !m.Type.CarriesData() || m.Bytes() != 128 {
		t.Fatal("PUT should carry data")
	}
	n := &Message{Type: MsgGet}
	if n.Type.CarriesData() || n.Bytes() != 16 {
		t.Fatal("GET should not carry data")
	}
	if !MsgGetX.IsRequest() || MsgDataExcl.IsRequest() {
		t.Fatal("IsRequest broken")
	}
	for ty := MsgGet; ty <= MsgUncachedErr+1; ty++ {
		if ty.String() == "" {
			t.Fatal("empty msg name")
		}
	}
	if m.String() == "" {
		t.Fatal("empty message string")
	}
}

func TestDirectoryScanLiveness(t *testing.T) {
	d := NewDirectory(8)
	up := func(n int) bool { return n != 5 }

	exLive := d.Get(0)
	exLive.State = DirExclusive
	exLive.Owner = 2
	exDead := d.Get(128)
	exDead.State = DirExclusive
	exDead.Owner = 5
	prLive := d.Get(256)
	prLive.State = DirPendingRecall
	prLive.Owner = 3
	prDead := d.Get(384)
	prDead.State = DirPendingRecall
	prDead.Owner = 5
	sh := d.Get(512)
	sh.State = DirShared
	sh.Sharers.Add(1)
	sh.Sharers.Add(5)
	shOnlyDead := d.Get(640)
	shOnlyDead.State = DirShared
	shOnlyDead.Sharers.Add(5)
	pi := d.Get(768)
	pi.State = DirPendingInval
	pi.AcksLeft = 3

	lost := d.ScanLiveness(up)
	if len(lost) != 2 {
		t.Fatalf("lost = %v, want 2 lines", lost)
	}
	if exLive.State != DirExclusive || exLive.Owner != 2 {
		t.Fatal("live exclusive owner must keep its line")
	}
	if !d.Incoherent(128) || !d.Incoherent(384) {
		t.Fatal("dead-owned lines must be incoherent")
	}
	if prLive.State != DirExclusive || prLive.Owner != 3 {
		t.Fatalf("pending recall with live owner should unlock to exclusive: %v", prLive.State)
	}
	if sh.Sharers.Has(5) || !sh.Sharers.Has(1) {
		t.Fatal("dead sharer not pruned")
	}
	if d.Lookup(640) != nil {
		t.Fatal("line shared only by a dead node should reset to invalid")
	}
	if pi.State != DirShared || pi.Sharers.Count() != 7 || pi.AcksLeft != 0 {
		t.Fatalf("pending-inval should become shared-by-all-live: %v count=%d",
			pi.State, pi.Sharers.Count())
	}
}
