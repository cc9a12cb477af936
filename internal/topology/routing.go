package topology

import "math"

// Routing tables. Tables[r][dst] is the port router r forwards a packet
// destined to dst through, or -1 when dst is unreachable. Tables[dst][dst]
// is PortLocal: deliver to the attached node.
//
// Two generators are provided. Pristine machines use the topology's natural
// deadlock-free routing (dimension order on the mesh, e-cube on the
// hypercube). After a failure, the interconnect-recovery phase computes
// up*/down* routes on the surviving graph (§4.4 uses the turn method; we use
// up*/down* on the dissemination-phase BFT, which is deadlock-free for any
// connected surviving graph). Tests verify the no-cycle property of the
// channel-dependency graph for both.

// Port is one routing-table entry: an output port of the router (an index
// into its adjacency list), -1 for "unreachable", or PortLocal. It is a byte
// wide, like the few bits per destination of a SPIDER table RAM, so the
// tables of a 1024-router machine are 1 MB rather than 8 and the per-hop
// lookup stays in cache; it indexes an adjacency list directly.
type Port int8

// PortLocal is the pseudo-port meaning "deliver to the attached node".
const PortLocal Port = -2

// MaxDegree is the largest router degree a Port can name.
const MaxDegree = math.MaxInt8

// Tables holds per-router next-hop ports indexed by destination router. The
// rows NewTables returns are slices of one n×n backing array.
type Tables [][]Port

// NewTables allocates an n×n table filled with -1 and the local diagonal.
func NewTables(n int) Tables {
	cells := make([]Port, n*n)
	for i := range cells {
		cells[i] = -1
	}
	tb := make(Tables, n)
	for r := range tb {
		tb[r] = cells[r*n : (r+1)*n : (r+1)*n]
		tb[r][r] = PortLocal
	}
	return tb
}

// DefaultTables returns the pristine-machine routing for t.
func DefaultTables(t *Topology) Tables {
	switch t.Kind() {
	case KindMesh:
		return dimOrderTables(t)
	case KindHypercube:
		return eCubeTables(t)
	default:
		v := NewView(t)
		_, bft := v.DiameterBound()
		return UpDownTables(v, bft)
	}
}

// dimOrderTables computes X-then-Y dimension-order routing for a mesh.
func dimOrderTables(t *Topology) Tables {
	n := t.Routers()
	tb := NewTables(n)
	for r := 0; r < n; r++ {
		rx, ry := t.MeshCoord(r)
		for d := 0; d < n; d++ {
			if d == r {
				continue
			}
			dx, dy := t.MeshCoord(d)
			var next int
			switch {
			case dx > rx:
				next = r + 1
			case dx < rx:
				next = r - 1
			case dy > ry:
				w, _ := t.MeshSize()
				next = r + w
			default:
				w, _ := t.MeshSize()
				next = r - w
			}
			tb[r][d] = Port(t.PortTo(r, next))
		}
	}
	return tb
}

// eCubeTables computes lowest-bit-first dimension routing for a hypercube.
func eCubeTables(t *Topology) Tables {
	n := t.Routers()
	tb := NewTables(n)
	for r := 0; r < n; r++ {
		for d := 0; d < n; d++ {
			if d == r {
				continue
			}
			diff := uint(r ^ d)
			bit := 0
			for diff&1 == 0 {
				diff >>= 1
				bit++
			}
			tb[r][d] = Port(t.PortTo(r, r^(1<<bit)))
		}
	}
	return tb
}

// linkIsUp reports whether traversing from r across a is an "up" traversal
// under the BFT-level orientation: the up end of a link is the endpoint with
// the smaller (level, id) pair.
func linkIsUp(bft *BFT, r int, a Adj) bool {
	lr, lt := bft.Dist[r], bft.Dist[a.To]
	if lr != lt {
		return lt < lr
	}
	return a.To < r
}

// UpTraversal reports whether traversing from r across a is an "up" move
// under b's orientation — the relation UpDownTables routes by. Exported for
// routing strategies that must reason about the same orientation.
func (b *BFT) UpTraversal(r int, a Adj) bool { return linkIsUp(b, r, a) }

// UpDownTables computes destination-based up*/down* routing tables over the
// live portion of v, using bft for the link orientation. For every
// destination the table is built in two waves: first the region that reaches
// the destination by only-down traversals, then the region that reaches that
// region by only-up traversals. A packet therefore goes up zero or more
// times, then down zero or more times, and never turns down→up, which keeps
// the channel-dependency graph acyclic. v and bft are only read; the returned
// tables are shared read-only once they become a recovery repair
// (routing.Repair) — install rows by copy.
func UpDownTables(v *View, bft *BFT) Tables {
	n := v.T.Routers()
	tb := NewTables(n)
	if bft == nil {
		return tb
	}
	// One scratch set for all destinations: each wave enqueues a router at
	// most once, so the queue never outgrows n and is popped by index.
	inDown := make([]bool, n)
	inUp := make([]bool, n)
	queue := make([]int, 0, n)
	for d := 0; d < n; d++ {
		if !v.RouterUp[d] || bft.Dist[d] < 0 {
			continue
		}
		// Wave 1: routers reaching d via down-traversals only.
		clear(inDown)
		inDown[d] = true
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			r := queue[head]
			// A router q can go down into r iff the traversal q→r is
			// a down traversal, i.e. r is the *down* end, i.e. the
			// reverse traversal r→q is up.
			for _, a := range v.T.Adjacency(r) {
				if !v.usable(r, a) || inDown[a.To] || bft.Dist[a.To] < 0 {
					continue
				}
				if !linkIsUp(bft, r, a) {
					continue // q→r would be up, not down
				}
				q := a.To
				inDown[q] = true
				tb[q][d] = Port(v.T.PortTo(q, r))
				queue = append(queue, q)
			}
		}
		// Wave 2: routers reaching the down-region via up-traversals.
		copy(inUp, inDown)
		queue = queue[:0]
		for r := range inDown {
			if inDown[r] {
				queue = append(queue, r)
			}
		}
		for head := 0; head < len(queue); head++ {
			r := queue[head]
			// A router q can go up into r iff q→r is an up traversal,
			// i.e. the reverse r→q is down.
			for _, a := range v.T.Adjacency(r) {
				if !v.usable(r, a) || inUp[a.To] || bft.Dist[a.To] < 0 {
					continue
				}
				if linkIsUp(bft, r, a) {
					continue // q→r would be down
				}
				q := a.To
				inUp[q] = true
				tb[q][d] = Port(v.T.PortTo(q, r))
				queue = append(queue, q)
			}
		}
	}
	return tb
}

// Route walks tb from src to dst and returns the router sequence including
// both endpoints, or nil if the route dead-ends or loops.
func (tb Tables) Route(t *Topology, src, dst int) []int {
	path := []int{src}
	r := src
	for steps := 0; steps <= t.Routers(); steps++ {
		if r == dst {
			return path
		}
		p := tb[r][dst]
		if p < 0 {
			return nil
		}
		r = t.Adjacency(r)[p].To
		path = append(path, r)
	}
	return nil // loop
}

// DependencyAcyclic checks that the channel-dependency graph induced by tb
// over live elements of v is acyclic: a cycle would mean the routing can
// deadlock. Channels are directed link traversals; channel c1 depends on c2
// when some destination's route enters a router through c1 and leaves it
// through c2.
func (tb Tables) DependencyAcyclic(v *View) bool {
	t := v.T
	n := t.Routers()
	// Channel id: 2*link + dir, dir 0 = A→B, 1 = B→A.
	chanID := func(r int, a Adj) int {
		l := t.Links()[a.Link]
		if l.A == r {
			return 2 * a.Link
		}
		return 2*a.Link + 1
	}
	nc := 2 * len(t.Links())
	dep := make([][]int, nc)
	addDep := func(from, to int) { dep[from] = append(dep[from], to) }
	for r := 0; r < n; r++ {
		if !v.RouterUp[r] {
			continue
		}
		for d := 0; d < n; d++ {
			pOut := tb[r][d]
			if pOut < 0 {
				continue
			}
			out := t.Adjacency(r)[pOut]
			if !v.usable(r, out) {
				continue
			}
			co := chanID(r, out)
			// Every channel arriving at r whose packets may be
			// destined to d creates a dependency on co. A packet can
			// arrive at r through channel q→r only if tb[q][d] routes
			// through r.
			for _, a := range t.Adjacency(r) {
				q := a.To
				if !v.usable(r, a) || !v.RouterUp[q] {
					continue
				}
				pq := tb[q][d]
				if pq < 0 || t.Adjacency(q)[pq].To != r {
					continue
				}
				ci := chanID(q, t.Adjacency(q)[pq])
				addDep(ci, co)
			}
		}
	}
	// Cycle detection via iterative DFS coloring.
	color := make([]int, nc) // 0 white, 1 gray, 2 black
	for s := 0; s < nc; s++ {
		if color[s] != 0 {
			continue
		}
		// Iterative DFS with explicit frames.
		type frame struct{ c, i int }
		frames := []frame{{s, 0}}
		color[s] = 1
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(dep[f.c]) {
				next := dep[f.c][f.i]
				f.i++
				switch color[next] {
				case 0:
					color[next] = 1
					frames = append(frames, frame{next, 0})
				case 1:
					return false // back edge: cycle
				}
				continue
			}
			color[f.c] = 2
			frames = frames[:len(frames)-1]
		}
	}
	return true
}
