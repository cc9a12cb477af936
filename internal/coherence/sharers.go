package coherence

import "slices"

// inlineSharers is how many sharers a SharerSet holds without a bitmap.
// Almost every resident line has at most one sharer, and a fourth is rare
// enough that a heap bitmap for it costs nothing measurable.
const inlineSharers = 3

// SharerSet is a directory line's sharer list: up to three node ids held
// inline in ascending order, spilled to a heap bitmap once a fourth node
// shares the line. Its size is therefore independent of the machine's. A
// spilled set stays spilled until Clear. Copying a SharerSet by value
// aliases a spilled bitmap; clone makes an independent copy.
type SharerSet struct {
	ids   [inlineSharers]uint16 // members, ascending; ids[:n] valid unless spilled
	n     uint8
	spill *NodeSet // members once spilled; nil while inline
}

// Add inserts node id.
func (s *SharerSet) Add(id int) {
	if s.spill != nil {
		w := *s.spill
		if id/64 >= len(w) {
			w = append(w, make(NodeSet, id/64+1-len(w))...)
			*s.spill = w
		}
		w.Add(id)
		return
	}
	i, found := slices.BinarySearch(s.ids[:s.n], uint16(id))
	if found {
		return
	}
	if s.n == inlineSharers {
		s.spillTo(max(id, int(s.ids[inlineSharers-1]))/64 + 1)
		s.spill.Add(id)
		return
	}
	copy(s.ids[i+1:], s.ids[i:s.n])
	s.ids[i] = uint16(id)
	s.n++
}

// spillTo moves the inline members into a bitmap of words words.
func (s *SharerSet) spillTo(words int) {
	w := make(NodeSet, words)
	for _, id := range s.ids[:s.n] {
		w.Add(int(id))
	}
	*s = SharerSet{spill: &w}
}

// Remove deletes node id.
func (s *SharerSet) Remove(id int) {
	if s.spill != nil {
		if id/64 < len(*s.spill) {
			s.spill.Remove(id)
		}
		return
	}
	if i, found := slices.BinarySearch(s.ids[:s.n], uint16(id)); found {
		copy(s.ids[i:], s.ids[i+1:s.n])
		s.n--
		s.ids[s.n] = 0
	}
}

// Has reports membership of node id.
func (s *SharerSet) Has(id int) bool {
	if s.spill != nil {
		return id/64 < len(*s.spill) && s.spill.Has(id)
	}
	return slices.Contains(s.ids[:s.n], uint16(id))
}

// Count returns the number of members.
func (s *SharerSet) Count() int {
	if s.spill != nil {
		return s.spill.Count()
	}
	return int(s.n)
}

// Empty reports whether the set has no members.
func (s *SharerSet) Empty() bool {
	if s.spill != nil {
		return s.spill.Empty()
	}
	return s.n == 0
}

// ForEach calls fn for every member in ascending order. fn may remove
// members from the set as it goes.
func (s *SharerSet) ForEach(fn func(id int)) {
	if s.spill != nil {
		s.spill.ForEach(fn) // ranges over a copy of each word
		return
	}
	ids, n := s.ids, s.n
	for _, id := range ids[:n] {
		fn(int(id))
	}
}

// Clear removes all members and lets go of a spilled bitmap.
func (s *SharerSet) Clear() { *s = SharerSet{} }

// fill replaces the set with every node below n that up reports live,
// asking up about each once, in ascending order. A set that spills gets a
// bitmap for all n nodes at once.
func (s *SharerSet) fill(n int, up func(node int) bool) {
	s.Clear()
	for i := 0; i < n; i++ {
		if up(i) {
			if s.spill == nil && s.n == inlineSharers {
				s.spillTo((n + 63) / 64)
			}
			s.Add(i)
		}
	}
}

// clone returns an independent copy: a spilled bitmap is copied, not shared.
func (s *SharerSet) clone() SharerSet {
	c := *s
	if s.spill != nil {
		w := s.spill.Clone()
		c.spill = &w
	}
	return c
}

// equal reports whether two sets have the same members, whatever their
// representations.
func (s *SharerSet) equal(o *SharerSet) bool {
	if s.spill == nil && o.spill == nil {
		return slices.Equal(s.ids[:s.n], o.ids[:o.n])
	}
	if s.Count() != o.Count() {
		return false
	}
	same := true
	s.ForEach(func(id int) { same = same && o.Has(id) })
	return same
}
