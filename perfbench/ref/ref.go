// Package ref is the benchmark's independent HeteSim scorer. It reads the
// graph file into its own edge maps and computes relevance straight from
// Definitions 8–10 of the paper by sparse probability propagation, with the
// Definition 6 edge-object split for odd-length paths. It imports nothing
// from the program under test, so an answer that agrees with it was not
// merely copied from the code that produced it.
package ref

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Network is a typed, weighted graph: node IDs per type and, per relation,
// forward and inverse adjacency maps that write batches can edit in place.
type Network struct {
	types  map[string]*nodeType
	abbrev map[byte]string
	rels   map[string]*relation
	order  []*relation // declaration order, for path resolution
}

type nodeType struct {
	ids   []string
	index map[string]int
}

type relation struct {
	src, dst string
	out      []map[int]float64 // src node -> dst node -> weight
	in       []map[int]float64 // dst node -> src node -> weight
}

// file mirrors the on-disk graph format: types, relations, node IDs per
// type and edges as (source index, target index, optional weight).
type file struct {
	Types []struct {
		Name   string `json:"name"`
		Abbrev string `json:"abbrev"`
	} `json:"types"`
	Relations []struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Target string `json:"target"`
	} `json:"relations"`
	Nodes map[string][]string `json:"nodes"`
	Edges map[string][]struct {
		S int     `json:"s"`
		T int     `json:"t"`
		W float64 `json:"w"`
	} `json:"edges"`
}

// Read loads a graph file.
func Read(r io.Reader) (*Network, error) {
	var f file
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("ref: decoding graph: %w", err)
	}
	n := &Network{types: map[string]*nodeType{}, abbrev: map[byte]string{}, rels: map[string]*relation{}}
	for _, t := range f.Types {
		nt := &nodeType{ids: f.Nodes[t.Name], index: make(map[string]int, len(f.Nodes[t.Name]))}
		for i, id := range nt.ids {
			nt.index[id] = i
		}
		n.types[t.Name] = nt
		if t.Abbrev != "" {
			n.abbrev[t.Abbrev[0]] = t.Name
		}
	}
	for _, fr := range f.Relations {
		src, dst := n.types[fr.Source], n.types[fr.Target]
		if src == nil || dst == nil {
			return nil, fmt.Errorf("ref: relation %s joins undeclared types", fr.Name)
		}
		r := &relation{src: fr.Source, dst: fr.Target,
			out: make([]map[int]float64, len(src.ids)), in: make([]map[int]float64, len(dst.ids))}
		for _, e := range f.Edges[fr.Name] {
			w := e.W
			if w == 0 {
				w = 1
			}
			r.set(e.S, e.T, w)
		}
		n.rels[fr.Name] = r
		n.order = append(n.order, r)
	}
	return n, nil
}

func (r *relation) set(s, t int, w float64) {
	if r.out[s] == nil {
		r.out[s] = map[int]float64{}
	}
	if r.in[t] == nil {
		r.in[t] = map[int]float64{}
	}
	r.out[s][t] = w
	r.in[t][s] = w
}

// Op is one edge edit of a write batch.
type Op struct {
	Delete   bool
	Relation string
	Src, Dst string
	Weight   float64
}

// Apply replays a write batch onto the network. Batches are all-or-nothing:
// an op naming an unknown node, or deleting a missing edge, rejects the
// whole batch before anything changes.
func (n *Network) Apply(ops []Op) error {
	type edit struct {
		r    *relation
		s, t int
		op   Op
	}
	var edits []edit
	for _, op := range ops {
		r := n.rels[op.Relation]
		if r == nil {
			return fmt.Errorf("ref: unknown relation %q", op.Relation)
		}
		s, ok1 := n.types[r.src].index[op.Src]
		t, ok2 := n.types[r.dst].index[op.Dst]
		if !ok1 || !ok2 {
			return fmt.Errorf("ref: %s edge %s->%s names an unknown node", op.Relation, op.Src, op.Dst)
		}
		edits = append(edits, edit{r, s, t, op})
	}
	pending := map[[3]any]bool{} // edge -> present after the edits so far
	for _, e := range edits {
		key := [3]any{e.r, e.s, e.t}
		present, seen := pending[key]
		if !seen {
			_, present = e.r.out[e.s][e.t]
		}
		if e.op.Delete && !present {
			return fmt.Errorf("ref: deleting missing %s edge %s->%s", e.op.Relation, e.op.Src, e.op.Dst)
		}
		pending[key] = !e.op.Delete
	}
	for _, e := range edits {
		if e.op.Delete {
			delete(e.r.out[e.s], e.t)
			delete(e.r.in[e.t], e.s)
			continue
		}
		w := e.op.Weight
		if w == 0 {
			w = 1
		}
		e.r.set(e.s, e.t, w)
	}
	return nil
}

// HasEdge reports whether relation rel links src to dst.
func (n *Network) HasEdge(rel, src, dst string) bool {
	r := n.rels[rel]
	if r == nil {
		return false
	}
	s, ok1 := n.types[r.src].index[src]
	t, ok2 := n.types[r.dst].index[dst]
	if !ok1 || !ok2 {
		return false
	}
	_, ok := r.out[s][t]
	return ok
}

// Index returns the position of a node among its type's IDs.
func (n *Network) Index(typ, id string) (int, bool) {
	t := n.types[typ]
	if t == nil {
		return 0, false
	}
	i, ok := t.index[id]
	return i, ok
}

// IDs returns the node IDs of a type in index order.
func (n *Network) IDs(typ string) []string {
	if t := n.types[typ]; t != nil {
		return t.ids
	}
	return nil
}

// step is one relation traversal of a path.
type step struct {
	r       *relation
	forward bool
}

func (s step) adj() []map[int]float64 {
	if s.forward {
		return s.r.out
	}
	return s.r.in
}

func (s step) reverse() step { return step{s.r, !s.forward} }

// Path is a resolved relevance path: its node types and relation steps.
type Path struct {
	Types []string
	steps []step
}

// ErrPath reports a path spec the schema cannot resolve.
var ErrPath = errors.New("ref: bad path")

// ParsePath resolves a spec of type abbreviations ("APVC"). Each adjacent
// pair of types must be joined by exactly one relation, in either direction.
func (n *Network) ParsePath(spec string) (*Path, error) {
	if len(spec) < 2 {
		return nil, fmt.Errorf("%w: %q is shorter than two types", ErrPath, spec)
	}
	p := &Path{}
	for i := 0; i < len(spec); i++ {
		t, ok := n.abbrev[spec[i]]
		if !ok {
			return nil, fmt.Errorf("%w: %q has unknown type %q", ErrPath, spec, spec[i])
		}
		p.Types = append(p.Types, t)
	}
	for i := 0; i+1 < len(p.Types); i++ {
		a, b := p.Types[i], p.Types[i+1]
		var found []step
		for _, r := range n.order {
			if r.src == a && r.dst == b {
				found = append(found, step{r, true})
			} else if r.src == b && r.dst == a {
				found = append(found, step{r, false})
			}
		}
		if len(found) != 1 {
			return nil, fmt.Errorf("%w: %d relations join %s and %s in %q", ErrPath, len(found), a, b, spec)
		}
		p.steps = append(p.steps, found[0])
	}
	return p, nil
}

// Walk follows the path from src one uniformly chosen neighbor at a time,
// pick(n) choosing among n neighbors in ascending index order. It returns
// the node reached, or "" at a dead end.
func (n *Network) Walk(p *Path, src string, pick func(n int) int) string {
	i, ok := n.types[p.Source()].index[src]
	if !ok {
		return ""
	}
	for _, s := range p.steps {
		adj := s.adj()[i]
		if len(adj) == 0 {
			return ""
		}
		next := make([]int, 0, len(adj))
		for j := range adj {
			next = append(next, j)
		}
		sort.Ints(next)
		i = next[pick(len(next))]
	}
	return n.types[p.Target()].ids[i]
}

// Source and Target name the path's end types.
func (p *Path) Source() string { return p.Types[0] }
func (p *Path) Target() string { return p.Types[len(p.Types)-1] }

// Dist is a probability distribution over the meeting objects in the middle
// of a path: nodes of the middle type for even lengths, edge objects of the
// middle relation (source index << 32 | target index) for odd lengths.
type Dist map[int64]float64

// propagate walks a distribution along steps: an object spreads its mass
// over its neighbors in proportion to edge weight (the transition
// probability matrix U of Definition 7).
func propagate(start int, steps []step) map[int]float64 {
	v := map[int]float64{start: 1}
	for _, s := range steps {
		adj := s.adj()
		next := map[int]float64{}
		for i, pi := range v {
			total := 0.0
			for _, w := range adj[i] {
				total += w
			}
			for j, w := range adj[i] {
				next[j] += pi * w / total
			}
		}
		v = next
	}
	return v
}

func (n *Network) index(typ, id string) (int, error) {
	i, ok := n.types[typ].index[id]
	if !ok {
		return 0, fmt.Errorf("ref: unknown %s %q", typ, id)
	}
	return i, nil
}

// Left is the reaching distribution of the source along the first half of
// the path (PM_PL of Definition 9). For an odd length it continues one step
// into the edge objects of the middle relation (Definition 6).
func (n *Network) Left(p *Path, src string) (Dist, error) {
	s, err := n.index(p.Source(), src)
	if err != nil {
		return nil, err
	}
	l := len(p.steps)
	v := propagate(s, p.steps[:l/2])
	out := Dist{}
	if l%2 == 0 {
		for i, x := range v {
			out[int64(i)] = x
		}
		return out, nil
	}
	mid := p.steps[l/2]
	adj := mid.adj()
	for i, x := range v {
		total := 0.0
		for _, w := range adj[i] {
			total += w
		}
		for j, w := range adj[i] {
			out[edgeKey(i, j)] += x * w / total
		}
	}
	return out, nil
}

// Right is the reaching distribution of the target along the second half of
// the path walked backwards (PM_PR⁻¹ of Definition 9).
func (n *Network) Right(p *Path, dst string) (Dist, error) {
	t, err := n.index(p.Target(), dst)
	if err != nil {
		return nil, err
	}
	l := len(p.steps)
	var back []step
	for i := l - 1; i >= (l+1)/2; i-- {
		back = append(back, p.steps[i].reverse())
	}
	v := propagate(t, back)
	out := Dist{}
	if l%2 == 0 {
		for i, x := range v {
			out[int64(i)] = x
		}
		return out, nil
	}
	mid := p.steps[l/2]
	adj := mid.reverse().adj()
	for j, x := range v {
		total := 0.0
		for _, w := range adj[j] {
			total += w
		}
		for i, w := range adj[j] {
			out[edgeKey(i, j)] += x * w / total
		}
	}
	return out, nil
}

// edgeKey names the edge object between i (on the path's left of the
// middle relation) and j (on its right), independent of the relation's
// declared direction.
func edgeKey(i, j int) int64 { return int64(i)<<32 | int64(j) }

// Norm is the Euclidean length of a distribution.
func (d Dist) Norm() float64 {
	s := 0.0
	for _, x := range d {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot is the inner product of two distributions: the meeting probability
// of Definition 8 when they are a path's left and right halves.
func Dot(a, b Dist) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	s := 0.0
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

// Cosine is the normalized HeteSim of Definition 10 from the two halves.
func Cosine(a, b Dist) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Pair is HeteSim(src, dst | p), normalized unless raw is set.
func (n *Network) Pair(p *Path, src, dst string, raw bool) (float64, error) {
	a, err := n.Left(p, src)
	if err != nil {
		return 0, err
	}
	b, err := n.Right(p, dst)
	if err != nil {
		return 0, err
	}
	if raw {
		return Dot(a, b), nil
	}
	return Cosine(a, b), nil
}

// Candidates returns the indices of every target whose right half can
// overlap the given left half — all other targets score exactly zero. It
// walks the second half of the path forwards from the meeting objects.
func (n *Network) Candidates(p *Path, left Dist) []int {
	l := len(p.steps)
	start := map[int]bool{}
	rest := p.steps[l/2:]
	if l%2 == 1 {
		rest = p.steps[l/2+1:]
		for k := range left {
			start[int(k&0xffffffff)] = true
		}
	} else {
		for k := range left {
			start[int(k)] = true
		}
	}
	for _, s := range rest {
		adj := s.adj()
		next := map[int]bool{}
		for i := range start {
			for j := range adj[i] {
				next[j] = true
			}
		}
		start = next
	}
	out := make([]int, 0, len(start))
	for i := range start {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
