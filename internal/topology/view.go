package topology

// View is a Topology restricted to the routers and links currently believed
// functional. The recovery algorithm operates exclusively on views: during
// the dissemination phase each node's view converges to the true surviving
// graph, and the interconnect-recovery phase computes new routes on it.
type View struct {
	T        *Topology
	RouterUp []bool
	LinkUp   []bool
}

// NewView returns a view of t with every router and link up.
func NewView(t *Topology) *View {
	v := &View{}
	v.Reset(t)
	return v
}

// Reset makes v a view of t with every router and link up, reusing its
// arrays when they are t's size.
func (v *View) Reset(t *Topology) {
	v.T = t
	if len(v.RouterUp) != t.Routers() || len(v.LinkUp) != len(t.Links()) {
		up := make([]bool, t.Routers()+len(t.Links()))
		v.RouterUp, v.LinkUp = up[:t.Routers():t.Routers()], up[t.Routers():]
	}
	for i := range v.RouterUp {
		v.RouterUp[i] = true
	}
	for i := range v.LinkUp {
		v.LinkUp[i] = true
	}
}

// Clone returns an independent copy of v.
func (v *View) Clone() *View {
	c := &View{T: v.T}
	c.RouterUp = append([]bool(nil), v.RouterUp...)
	c.LinkUp = append([]bool(nil), v.LinkUp...)
	return c
}

// FailRouter marks router r (and, per §4.1, all links attached to it) down.
func (v *View) FailRouter(r int) {
	v.RouterUp[r] = false
	for _, a := range v.T.Adjacency(r) {
		v.LinkUp[a.Link] = false
	}
}

// FailLink marks link l down.
func (v *View) FailLink(l int) { v.LinkUp[l] = false }

// usable reports whether the edge a out of router r can be traversed.
func (v *View) usable(r int, a Adj) bool {
	return v.LinkUp[a.Link] && v.RouterUp[a.To]
}

// Usable reports whether the edge a out of router r can be traversed: the
// link and the far router are both up. Routing strategies outside this
// package use it to walk the surviving graph.
func (v *View) Usable(r int, a Adj) bool { return v.usable(r, a) }

// BFT is a breadth-first tree over the live portion of a view.
type BFT struct {
	Root       int
	Height     int
	Dist       []int // hop distance from Root; -1 if unreachable
	Parent     []int // BFS parent; -1 for root and unreachable routers
	ParentPort []int // port at the router leading to its parent; -1 likewise

	queue []int // BFSInto's work queue, carved with the arrays
}

// BFS computes a breadth-first tree rooted at root over live routers and
// links. Neighbors are visited in port order, so the tree is deterministic.
// It allocates twice at any size: the tree and one block holding its three
// arrays and the queue.
func (v *View) BFS(root int) *BFT {
	b := &BFT{}
	v.BFSInto(b, root)
	return b
}

// BFSInto computes BFS(root) into b, reusing b's arrays when they are the
// view's size: a caller that recomputes trees keeps one BFT and allocates
// nothing after the first.
func (v *View) BFSInto(b *BFT, root int) {
	n := v.T.Routers()
	if len(b.Dist) != n {
		block := make([]int, 4*n)
		b.Dist, b.Parent, b.ParentPort = block[:n:n], block[n:2*n:2*n], block[2*n:3*n:3*n]
		b.queue = block[3*n:]
	}
	b.Root, b.Height = root, 0
	for i := 0; i < n; i++ {
		b.Dist[i] = -1
		b.Parent[i] = -1
		b.ParentPort[i] = -1
	}
	if root < 0 || root >= n || !v.RouterUp[root] {
		return
	}
	// Each router is enqueued at most once, so the queue never outgrows n
	// and is popped by index.
	b.Dist[root] = 0
	queue := append(b.queue[:0], root)
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if b.Dist[r] > b.Height {
			b.Height = b.Dist[r]
		}
		for _, a := range v.T.Adjacency(r) {
			if !v.usable(r, a) || b.Dist[a.To] != -1 {
				continue
			}
			b.Dist[a.To] = b.Dist[r] + 1
			b.Parent[a.To] = r
			b.ParentPort[a.To] = v.T.PortTo(a.To, r)
			queue = append(queue, a.To)
		}
	}
}

// Reachable reports how many live routers the BFT spans (including the root).
func (b *BFT) Reachable() int {
	n := 0
	for _, d := range b.Dist {
		if d >= 0 {
			n++
		}
	}
	return n
}

// ElectRoot returns the lowest-numbered live router, which is the
// deterministic root-election rule every node applies to its stabilized view
// during the dissemination phase (§4.3). It returns -1 if no router is live.
func (v *View) ElectRoot() int {
	for r, up := range v.RouterUp {
		if up {
			return r
		}
	}
	return -1
}

// DiameterBound returns 2×height of the BFT rooted at the elected root,
// which upper-bounds the diameter of the live graph (§4.3), together with
// the tree itself. It returns (0, nil) when no router is live.
func (v *View) DiameterBound() (int, *BFT) {
	root := v.ElectRoot()
	if root < 0 {
		return 0, nil
	}
	b := v.BFS(root)
	return 2 * b.Height, b
}

// Connected reports whether all live routers form a single component.
func (v *View) Connected() bool {
	root := v.ElectRoot()
	if root < 0 {
		return true
	}
	b := v.BFS(root)
	for r, up := range v.RouterUp {
		if up && b.Dist[r] < 0 {
			return false
		}
	}
	return true
}

// Components returns the live routers grouped into connected components,
// each sorted ascending, ordered by their smallest member.
func (v *View) Components() [][]int {
	n := v.T.Routers()
	seen := make([]bool, n)
	var comps [][]int
	for r := 0; r < n; r++ {
		if !v.RouterUp[r] || seen[r] {
			continue
		}
		b := v.BFS(r)
		var comp []int
		for q := 0; q < n; q++ {
			if b.Dist[q] >= 0 {
				comp = append(comp, q)
				seen[q] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Diameter computes the exact diameter of the live graph by running a BFS
// from every live router. The recovery algorithm never does this (it is the
// quadratic computation §4.3 rejects); tests use it to validate the 2h bound.
func (v *View) Diameter() int {
	d := 0
	for r, up := range v.RouterUp {
		if !up {
			continue
		}
		b := v.BFS(r)
		for q, up2 := range v.RouterUp {
			if up2 && b.Dist[q] > d {
				d = b.Dist[q]
			}
		}
	}
	return d
}
