package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"hetesim/perfbench/ref"
)

type opKind int

const (
	kindPair opKind = iota
	kindTopK
	kindRel
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{"pair", "topk", "relevance", "write"}

// edgeOp is one edge edit of a write batch, in the admin API's wire form.
type edgeOp struct {
	Op       string  `json:"op"`
	Relation string  `json:"relation"`
	Source   string  `json:"source"`
	Target   string  `json:"target"`
	Weight   float64 `json:"weight,omitempty"`
}

// op is one client operation, prepared ahead of the timed loop so that the
// loop spends its time on the stack, not on building requests.
type op struct {
	kind     opKind
	path     string   // pair and top-k path spec
	paths    []string // relevance: pinned paths; nil lets the router enumerate
	srcType  string
	dstType  string
	src, dst string
	k        int
	batch    []edgeOp // write
	// afterWrite marks a read that must reflect the latest acked write: it
	// carries that write's sequence as X-Min-WAL-Seq.
	afterWrite bool

	target string // request path and query
	body   []byte // POST body
}

// precomputeSet is materialized by the primary at start-up (and shipped
// to the follower in its snapshot). Writes on writes and mentions dirty
// every member.
var precomputeSet = []string{"APA", "APVC", "APVPA", "APTPA", "APSPA"}

// warmEnsemble is the author→author part of the precompute set: the pinned
// paths of warm relevance queries.
var warmEnsemble = []string{"APA", "APVPA", "APTPA", "APSPA"}

// generator yields a workload's operations. It depends only on the seed
// and the graph as generated, never on the stack's answers or timing, so a
// seed gives the same stream on every run and on every commit.
type generator interface {
	next() *op
}

type base struct {
	rng   *rand.Rand
	net   *ref.Network
	paths map[string]*ref.Path
}

func (b *base) path(spec string) *ref.Path {
	if p, ok := b.paths[spec]; ok {
		return p
	}
	p, err := b.net.ParsePath(spec)
	if err != nil {
		panic(fmt.Sprintf("workload path %s: %v", spec, err)) // the pools are fixed and valid
	}
	b.paths[spec] = p
	return p
}

func (b *base) uniform(typ string) string {
	ids := b.net.IDs(typ)
	return ids[b.rng.Intn(len(ids))]
}

// related picks a target that the source reaches along the path (a random
// walk) four times in five, so most pair scores are non-zero, and a
// uniformly random one otherwise.
func (b *base) related(spec, src string) string {
	p := b.path(spec)
	if b.rng.Intn(5) > 0 {
		if t := b.net.Walk(p, src, b.rng.Intn); t != "" {
			return t
		}
	}
	return b.uniform(p.Target())
}

func (b *base) pair(spec, src string) *op {
	p := b.path(spec)
	return &op{kind: kindPair, path: spec, srcType: p.Source(), dstType: p.Target(), src: src, dst: b.related(spec, src)}
}

func (b *base) topk(spec, src string) *op {
	p := b.path(spec)
	return &op{kind: kindTopK, path: spec, srcType: p.Source(), dstType: p.Target(), src: src, k: 10}
}

// relevance asks for the ensemble between src and a target related along
// one of the member paths (or along a path between the endpoint types when
// the router enumerates them).
func (b *base) relevance(pinned []string, spec, src string) *op {
	p := b.path(spec)
	via := spec
	if len(pinned) > 0 {
		via = pinned[b.rng.Intn(len(pinned))]
	}
	return &op{kind: kindRel, paths: pinned, srcType: p.Source(), dstType: p.Target(), src: src, dst: b.related(via, src)}
}

// Source popularity in warm-read: P(rank k) ∝ (zipfV + k)^-zipfS over a
// seeded permutation of the authors. The offset spreads the head over a
// hundred or so authors (about 30% of the queries), so a run's cost does
// not hinge on which few authors the seed makes hottest.
const (
	zipfS = 1.2
	zipfV = 50
)

// warmRead: pair and top-k on the precompute set with Zipf-skewed sources,
// plus a few ensembles pinned to the warm author→author paths.
type warmRead struct {
	base
	authors []string
	zipf    *rand.Zipf
}

func newWarmRead(rng *rand.Rand, net *ref.Network) *warmRead {
	authors := append([]string(nil), net.IDs("author")...)
	rng.Shuffle(len(authors), func(i, j int) { authors[i], authors[j] = authors[j], authors[i] })
	return &warmRead{
		base:    base{rng: rng, net: net, paths: map[string]*ref.Path{}},
		authors: authors,
		zipf:    rand.NewZipf(rng, zipfS, zipfV, uint64(len(authors)-1)),
	}
}

func (w *warmRead) next() *op {
	src := w.authors[w.zipf.Uint64()]
	spec := precomputeSet[w.rng.Intn(len(precomputeSet))]
	switch r := w.rng.Intn(100); {
	case r < 67:
		return w.pair(spec, src)
	case r < 97:
		return w.topk(spec, src)
	default:
		return w.relevance(warmEnsemble, "APA", src)
	}
}

// adhocRead: paths none of which is precomputed, each repeated over a run
// of uniformly random sources, with pair, top-k and enumerated ensembles.
// The pool is walked in a seeded order, every path once per cycle, so each
// run weighs the paths alike.
type adhocRead struct {
	base
	pool  []string
	order []int
	spec  string
	left  int
}

// adhocRun is how many consecutive operations use one path: enough
// repetition that materializing the path on first use could pay off.
const adhocRun = 32

func newAdhocRead(rng *rand.Rand, net *ref.Network, pool []string) *adhocRead {
	return &adhocRead{base: base{rng: rng, net: net, paths: map[string]*ref.Path{}}, pool: pool}
}

func (a *adhocRead) next() *op {
	if a.left == 0 {
		if len(a.order) == 0 {
			a.order = a.rng.Perm(len(a.pool))
		}
		a.spec, a.left = a.pool[a.order[0]], adhocRun
		a.order = a.order[1:]
	}
	a.left--
	p := a.path(a.spec)
	src := a.uniform(p.Source())
	switch r := a.rng.Intn(100); {
	case r < 50:
		return a.pair(a.spec, src)
	case r < 80:
		return a.topk(a.spec, src)
	default:
		return a.relevance(nil, a.spec, src)
	}
}

// writer makes small edge batches on writes and mentions. Upserts add edges
// the generated graph lacks; deletes remove edges an earlier batch added,
// so every batch applies and the graph stays near its generated size. Each
// batch names a focus author whose scores it changes.
type writer struct {
	base
	prefix string
	n      int
	added  []edgeOp
	live   map[edgeOp]bool
}

func newWriter(rng *rand.Rand, net *ref.Network, prefix string) *writer {
	return &writer{base: base{rng: rng, net: net, paths: map[string]*ref.Path{}}, prefix: prefix, live: map[edgeOp]bool{}}
}

// upsert adds an edge the graph lacks on writes (author, paper) or
// mentions (paper, term).
func (w *writer) upsert(rel string) edgeOp {
	for {
		e := edgeOp{Op: "upsert_edge", Relation: rel, Weight: 1}
		if rel == "writes" {
			e.Source, e.Target = w.uniform("author"), w.uniform("paper")
		} else {
			e.Source, e.Target = w.uniform("paper"), w.uniform("term")
		}
		if !w.net.HasEdge(e.Relation, e.Source, e.Target) && !w.live[e] {
			w.live[e] = true
			w.added = append(w.added, e)
			return e
		}
	}
}

// edit deletes one of rel's edges an earlier batch added — it walks them
// oldest first and takes each with even odds — or, taking none, adds one.
func (w *writer) edit(rel string) edgeOp {
	for i, e := range w.added {
		if e.Relation != rel || w.rng.Intn(2) == 0 {
			continue
		}
		w.added = append(w.added[:i:i], w.added[i+1:]...)
		delete(w.live, e)
		e.Op, e.Weight = "delete_edge", 0
		return e
	}
	return w.upsert(rel)
}

// write makes one batch: an edit on writes, whose author is the batch's
// focus, and an edit on mentions. Every batch has the same make-up and
// dirties the focus author's rows of every precomputed path, so the writes
// all cost alike and the reads after them all do the same kind of work; a
// mix of batch sizes would put the write median on whichever size the seed
// happens to favour.
func (w *writer) write() (*op, string) {
	first := w.edit("writes")
	batch := []edgeOp{first, w.edit("mentions")}
	w.n++
	return &op{kind: kindWrite, batch: batch, src: w.prefix + strconv.Itoa(w.n)}, first.Source
}

// toggle makes the closing round's writes: an author gains a paper, then
// loses it again, one single-edge batch at a time, so every write of the
// round does the same kind of work.
func (w *writer) toggle() (*op, string) {
	var e edgeOp
	if len(w.added) > 0 {
		e = w.added[0]
		w.added = w.added[1:]
		delete(w.live, e)
		e.Op, e.Weight = "delete_edge", 0
	} else {
		e = w.upsert("writes")
	}
	w.n++
	return &op{kind: kindWrite, batch: []edgeOp{e}, src: w.prefix + strconv.Itoa(w.n)}, e.Source
}

// writeMix: each write is followed by reads of its focus author on
// precomputed paths it dirties, all carrying the write's sequence.
type writeMix struct {
	*writer
	queue []*op
}

func (m *writeMix) next() *op {
	if len(m.queue) == 0 {
		w, a := m.write()
		m.queue = []*op{
			w,
			m.pair("APA", a),
			m.pair("APTPA", a),
			m.topk("APVC", a),
			m.relevance(warmEnsemble, "APA", a),
		}
		for _, o := range m.queue[1:] {
			o.afterWrite = true
		}
	}
	o := m.queue[0]
	m.queue = m.queue[1:]
	return o
}

// adhocPool lists the schema's meta paths (up to four steps) between the
// endpoint types the workload asks about, leaving out the precompute set
// and the reverses of its members.
func adhocPool(enumerated map[[2]string][]string) []string {
	skip := map[string]bool{}
	for _, s := range precomputeSet {
		skip[s], skip[reverseSpec(s)] = true, true
	}
	var keys [][2]string
	for k := range enumerated {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0]+"\x00"+keys[i][1] < keys[j][0]+"\x00"+keys[j][1]
	})
	var pool []string
	for _, k := range keys {
		for _, s := range enumerated[k] {
			if !skip[s] {
				pool = append(pool, s)
			}
		}
	}
	return pool
}

// reverseSpec spells P⁻¹ for a spec of one-letter type abbreviations.
func reverseSpec(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// prepare renders an operation's request, outside the timed loop.
func (o *op) prepare() {
	switch o.kind {
	case kindPair:
		o.target = "/v1/pair?path=" + url.QueryEscape(o.path) + "&source=" + url.QueryEscape(o.src) + "&target=" + url.QueryEscape(o.dst)
	case kindTopK:
		o.target = "/v1/topk?path=" + url.QueryEscape(o.path) + "&source=" + url.QueryEscape(o.src) + "&k=" + strconv.Itoa(o.k)
	case kindRel:
		o.target = "/v1/relevance"
		o.body = mustJSON(map[string]any{
			"source": o.src, "source_type": o.srcType,
			"target": o.dst, "target_type": o.dstType,
			"paths": o.paths,
		})
	case kindWrite:
		o.target = "/v1/admin/edges"
		o.body = mustJSON(map[string]any{"key": o.src, "ops": o.batch})
	}
}
