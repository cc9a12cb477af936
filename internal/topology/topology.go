// Package topology describes the interconnect graphs used by flashfc (the
// 2-D mesh assumed by the paper's experiments, the hypercube used for the
// Fig 5.5 dissemination comparison, and arbitrary link lists for irregular
// fabrics) and implements the graph algorithms the
// recovery algorithm needs: breadth-first trees, the 2h diameter bound
// (§4.3), connected components, and deadlock-free up*/down* routing-table
// computation for the interconnect-recovery phase (§4.4).
//
// Routers and compute nodes are 1:1 in this model: router i serves node i.
// Links are undirected edges between routers; each endpoint sees the link
// through a port, which is the index into that router's adjacency list.
package topology

import "fmt"

// Link is an undirected edge between two routers.
type Link struct {
	A, B int
}

// Other returns the endpoint of l that is not r.
func (l Link) Other(r int) int {
	if l.A == r {
		return l.B
	}
	return l.A
}

// Adj is one entry of a router's adjacency list: the link used and the
// router at its far end.
type Adj struct {
	Link int // index into Topology.Links
	To   int // neighbor router
}

// Kind discriminates the built-in topology families.
type Kind int

const (
	KindMesh Kind = iota
	KindHypercube
	// KindGraph is an arbitrary link list (NewGraph): no coordinate
	// structure, so it is routed by up*/down* from the start.
	KindGraph
)

// Topology is an immutable interconnect graph.
type Topology struct {
	name  string
	kind  Kind
	n     int
	w, h  int // mesh dimensions (mesh only)
	dim   int // hypercube dimension (hypercube only)
	links []Link
	adj   [][]Adj
}

// NewMesh returns a w×h 2-D mesh. Router (x, y) has index y*w+x.
func NewMesh(w, h int) *Topology {
	if w < 1 || h < 1 {
		panic("topology: mesh dimensions must be positive")
	}
	t := &Topology{
		name: fmt.Sprintf("mesh-%dx%d", w, h),
		kind: KindMesh,
		n:    w * h,
		w:    w, h: h,
		adj: make([][]Adj, w*h),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := y*w + x
			if x+1 < w {
				t.addLink(r, r+1)
			}
			if y+1 < h {
				t.addLink(r, r+w)
			}
		}
	}
	return t
}

// addLink appends the link a-b and its port at each end.
func (t *Topology) addLink(a, b int) {
	id := len(t.links)
	t.links = append(t.links, Link{A: a, B: b})
	t.adj[a] = append(t.adj[a], Adj{Link: id, To: b})
	t.adj[b] = append(t.adj[b], Adj{Link: id, To: a})
}

// NewHypercube returns a dim-dimensional hypercube with 2^dim routers.
func NewHypercube(dim int) *Topology {
	if dim < 0 || dim > 20 {
		panic("topology: hypercube dimension out of range")
	}
	n := 1 << dim
	t := &Topology{
		name: fmt.Sprintf("hypercube-%d", dim),
		kind: KindHypercube,
		n:    n,
		dim:  dim,
		adj:  make([][]Adj, n),
	}
	for a := 0; a < n; a++ {
		for d := 0; d < dim; d++ {
			b := a ^ (1 << d)
			if b > a {
				t.addLink(a, b)
			}
		}
	}
	return t
}

// NewGraph returns the irregular topology with n routers joined by links.
// Ports are numbered in link order at each endpoint.
func NewGraph(n int, links []Link) *Topology {
	t := &Topology{
		name: fmt.Sprintf("graph-%d", n),
		kind: KindGraph,
		n:    n,
		adj:  make([][]Adj, n),
	}
	for id, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.A == l.B {
			panic(fmt.Sprintf("topology: link %d joins %d and %d in a %d-router graph", id, l.A, l.B, n))
		}
		t.addLink(l.A, l.B)
	}
	return t
}

// Name returns a human-readable topology name.
func (t *Topology) Name() string { return t.name }

// Kind returns the topology family.
func (t *Topology) Kind() Kind { return t.kind }

// Routers returns the number of routers (== number of nodes).
func (t *Topology) Routers() int { return t.n }

// RouterOf returns the router that serves node n. On today's mesh
// topologies the mapping is the identity (router i serves node i), but
// callers must still go through it: planned clustered topologies hang
// several nodes off one router, and code that copies a node id into a
// router id breaks there.
func (t *Topology) RouterOf(n int) int { return n }

// Links returns the undirected link list. The caller must not modify it.
func (t *Topology) Links() []Link { return t.links }

// Adjacency returns router r's adjacency list. Port p of router r refers to
// Adjacency(r)[p]. The caller must not modify it.
func (t *Topology) Adjacency(r int) []Adj { return t.adj[r] }

// Degree returns the number of ports of router r.
func (t *Topology) Degree(r int) int { return len(t.adj[r]) }

// PortTo returns the port of router r that leads to neighbor q, or -1.
func (t *Topology) PortTo(r, q int) int {
	for p, a := range t.adj[r] {
		if a.To == q {
			return p
		}
	}
	return -1
}

// MeshCoord returns the (x, y) coordinate of router r in a mesh.
func (t *Topology) MeshCoord(r int) (x, y int) {
	if t.kind != KindMesh {
		panic("topology: MeshCoord on non-mesh")
	}
	return r % t.w, r / t.w
}

// MeshSize returns the mesh dimensions.
func (t *Topology) MeshSize() (w, h int) { return t.w, t.h }
