package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/relevance"
	"hetesim/internal/server"
	"hetesim/internal/snapshot"
	"hetesim/internal/sparse"
	"hetesim/internal/wal"
)

// The traced run sends each operation of the stream into every layer in
// turn, from the benchmark's own code: metapath.Parse, the engine (a
// core.Engine over the benchmark's own copy of the graph, kept in step
// with the fleet), the sparse kernel on the query's half-path
// propagations, server.Handler() in process, the primary over loopback,
// router.Handler() in process, and the client's own request through the
// router's socket. Each call is a span; a layer's self time is the
// difference between its span and the span of the layer it wraps, taken
// per operation. Every layer must return the same score bits.

// span is one timed call, relative to the tracer's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for an operation
	Req    int    `json:"req"`    // operation number
}

// planKinds are the engine's physical plans, reported as core.plan.<kind>.
var planKinds = []core.PlanKind{
	core.PlanPairVectors, core.PlanSingleVsMatrix, core.PlanAllPairs,
	core.PlanSubsetChain, core.PlanMonteCarlo, core.PlanTopKApprox,
}

type tracer struct {
	f      *fleet
	origin time.Time
	active bool
	spans  []span
	req    int

	g      *hin.Graph   // the benchmark's copy, following the fleet's writes
	eng    *core.Engine // mirror of the primary's engine
	trans  map[string]*sparse.Matrix
	shadow *server.Server // primary-equivalent for in-process write timing
	log    *wal.Log
	http   *http.Client // loopback to the primary

	ns        map[string][]float64 // per-layer samples
	sum       map[string]float64   // per-layer totals, for means
	count     map[string]float64
	planBase  map[string]uint64 // the mirror engine's selections when counting began
	planDone  map[string]uint64 // selections of mirror engines since replaced
	mismatch  string
	spansPath string
	stale     int // router reads retried for an unreplicated floor
	busy      int // writes retried for a held write lock

	cacheHits, cacheMisses *obs.Counter
	retries, hedges        *obs.Counter
	retries0, hedges0      uint64
	plainGo, goMark        goStats
}

// goStats are runtime counters over a phase.
type goStats struct {
	gc      uint32
	pauseNs uint64
	alloc   uint64
	ops     int
}

func readGo(ops int) goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{gc: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc, ops: ops}
}

func (a goStats) since(b goStats) goStats {
	return goStats{gc: a.gc - b.gc, pauseNs: a.pauseNs - b.pauseNs, alloc: a.alloc - b.alloc, ops: a.ops - b.ops}
}

// newTracer measures the set-up layers once — graph load, precompute,
// SpGEMM, snapshot encode and decode — and prepares the mirrors the
// traced phase calls into.
func newTracer(f *fleet, graphPath, dir, spansPath string) (*tracer, error) {
	t := &tracer{
		f: f, origin: time.Now(), spansPath: spansPath,
		ns: map[string][]float64{}, sum: map[string]float64{}, count: map[string]float64{},
		http:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second},
		cacheHits:   obs.Default().Counter("hetesim_engine_cache_hits_total", ""),
		cacheMisses: obs.Default().Counter("hetesim_engine_cache_misses_total", ""),
		retries:     obs.Default().Counter("hetesim_router_retries_total", ""),
		hedges:      obs.Default().Counter("hetesim_router_hedges_total", ""),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		start := time.Now()
		g, err := loadGraph(graphPath)
		if err != nil {
			return nil, err
		}
		t.add("hin.load_ns", float64(time.Since(start)))
		t.g = g
	}
	for i := 0; i < 3; i++ {
		e := core.NewEngine(t.g)
		start := time.Now()
		for _, spec := range precomputeSet {
			if err := e.Precompute(ctx, metapath.MustParse(t.g.Schema(), spec)); err != nil {
				return nil, err
			}
		}
		t.add("core.precompute_ns", float64(time.Since(start)))
		t.eng = e
	}
	// SpGEMM on the shapes precompute multiplies: each precompute path's
	// first half, step by step.
	t.buildTransitions()
	for i := 0; i < 3; i++ {
		for _, spec := range precomputeSet {
			steps := t.stepMatrices(metapath.MustParse(t.g.Schema(), spec))
			acc := steps[0]
			for _, m := range steps[1 : len(steps)/2] {
				start := time.Now()
				acc = acc.Mul(m)
				t.add("sparse.mat_mul_ns", float64(time.Since(start)))
			}
		}
	}
	if err := t.measureSnapshot(); err != nil {
		return nil, err
	}

	// The shadow primary applies every write the fleet applies, so its
	// in-process mutate time is the primary's without the network.
	sg := filepath.Join(dir, "shadow.json")
	if err := copyFile(sg, graphPath); err != nil {
		return nil, err
	}
	shadowGraph, err := loadGraph(sg)
	if err != nil {
		return nil, err
	}
	t.shadow = server.New(shadowGraph, serverOptions(sg, filepath.Join(dir, "shadow.wal"))...)
	if _, err := t.shadow.OpenWAL(); err != nil {
		return nil, err
	}
	for _, spec := range precomputeSet {
		if err := t.shadow.Precompute(spec); err != nil {
			return nil, err
		}
	}
	t.shadow.MarkReady()
	if t.log, _, err = wal.Open(snapshot.OS{}, filepath.Join(dir, "bench.wal"), t.g.Fingerprint()); err != nil {
		return nil, err
	}
	t.retries0, t.hedges0 = t.retries.Value(), t.hedges.Value()
	return t, nil
}

func (t *tracer) measureSnapshot() error {
	chains := t.eng.ExportChains()
	var encoded []byte
	for i := 0; i < 3; i++ {
		start := time.Now()
		snap := &snapshot.Snapshot{Fingerprint: t.g.Fingerprint(), PruneEps: t.eng.PruneEps()}
		if err := snapshot.EncodeChains(snap, chains); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, snap); err != nil {
			return err
		}
		t.add("snapshot.encode_ns", float64(time.Since(start)))
		encoded = buf.Bytes()
	}
	t.add("snapshot.bytes", float64(len(encoded)))
	for i := 0; i < 3; i++ {
		start := time.Now()
		snap, err := snapshot.Read(bytes.NewReader(encoded))
		if err != nil {
			return err
		}
		if _, err := snapshot.DecodeChains(snap); err != nil {
			return err
		}
		t.add("snapshot.decode_ns", float64(time.Since(start)))
	}
	return nil
}

// buildTransitions row-normalizes every relation's adjacency in both
// directions: the transition matrices U of Definition 7 that the sparse
// layer is driven with.
func (t *tracer) buildTransitions() {
	t.trans = map[string]*sparse.Matrix{}
	for _, r := range t.g.Schema().Relations() {
		adj, err := t.g.Adjacency(r.Name)
		if err != nil {
			continue
		}
		t.trans[r.Name+">"] = adj.RowNormalize()
		t.trans[r.Name+"<"] = adj.Transpose().RowNormalize()
	}
}

// stepMatrices returns the transition matrix of each step of p.
func (t *tracer) stepMatrices(p *metapath.Path) []*sparse.Matrix {
	var out []*sparse.Matrix
	for _, s := range p.Steps() {
		dir := ">"
		if s.Inverse {
			dir = "<"
		}
		out = append(out, t.trans[s.Relation.Name+dir])
	}
	return out
}

func (t *tracer) add(name string, v float64) {
	t.ns[name] = append(t.ns[name], v)
}

func (t *tracer) mean(name string, v float64) {
	t.sum[name] += v
	t.count[name]++
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// call records fn as a span under parent and returns its duration.
func (t *tracer) call(name string, parent int, fn func()) time.Duration {
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req})
	fn()
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// allocs is the process's heap allocation count so far. ReadMemStats
// stops the world, so it is read only outside the spans it brackets.
func (t *tracer) allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// startPlain marks the start of the untraced half.
func (t *tracer) startPlain(ops int) { t.goMark = readGo(ops) }

// begin ends the untraced half and starts tracing.
func (t *tracer) begin(ops int) {
	t.plainGo = readGo(ops).since(t.goMark)
	t.planBase, t.planDone = t.eng.PlanSelections(), map[string]uint64{}
	t.active = true
}

func (t *tracer) end() { t.active = false }

func (t *tracer) close() {
	if t.log != nil {
		t.log.Close()
	}
	if t.shadow != nil {
		t.shadow.CloseWAL()
	}
	t.http.CloseIdleConnections()
}

func (t *tracer) disagree(format string, args ...any) {
	if t.mismatch == "" {
		t.mismatch = fmt.Sprintf(format, args...)
	}
}

// do runs one operation. Outside the traced phase it only keeps the
// mirrors in step with the fleet's writes.
func (t *tracer) do(c *client, o *op) (record, error) {
	if o.kind == kindWrite {
		return t.write(c, o)
	}
	if !t.active {
		return c.do(o)
	}
	t.req++
	root := len(t.spans)
	t.spans = append(t.spans, span{Name: "op." + kindNames[o.kind], Start: t.now(), Parent: -1, Req: t.req})
	defer func() { t.spans[root].End = t.now() }()
	var rec record
	var err error
	switch o.kind {
	case kindPair, kindTopK:
		rec, err = t.read(c, o, root)
	case kindRel:
		rec, err = t.relevance(c, o, root)
	}
	return rec, err
}

// inProcess serves one request from a handler without a socket.
func inProcess(h http.Handler, o *op, minSeq uint64) (answer, error) {
	req, err := request("http://in-process", o, minSeq)
	if err != nil {
		return answer{}, err
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return decode(w.Code, w.Body.Bytes())
}

// routed serves one request from the router's handler in process.
func (t *tracer) routed(o *op, minSeq uint64) (answer, error) {
	return t.retry(o, minSeq, "http://in-process", func(req *http.Request) (int, []byte, error) {
		w := httptest.NewRecorder()
		t.f.router.Handler().ServeHTTP(w, req)
		return w.Code, w.Body.Bytes(), nil
	})
}

// loopback sends one request straight to the primary's socket.
func (t *tracer) loopback(o *op, minSeq uint64) (answer, error) {
	return t.retry(o, minSeq, t.f.primary.url, func(req *http.Request) (int, []byte, error) {
		resp, err := t.http.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), err
	})
}

// retry sends a request until the answer is not a transient refusal, as
// the client does, counting the retries.
func (t *tracer) retry(o *op, minSeq uint64, base string, send func(*http.Request) (int, []byte, error)) (answer, error) {
	start := time.Now()
	for {
		req, err := request(base, o, minSeq)
		if err != nil {
			return answer{}, err
		}
		code, body, err := send(req)
		if err != nil {
			return answer{}, err
		}
		if transient(o, minSeq, code, body) == "" || time.Since(start) > retryWait {
			return decode(code, body)
		}
		if o.kind == kindWrite {
			t.busy++
		} else {
			t.stale++
		}
		time.Sleep(time.Millisecond)
	}
}

// stack times the three HTTP layers and the client for one read and
// returns their answers in that order.
func (t *tracer) stack(c *client, o *op, root int, rec *record, kind string) ([4]answer, [4]time.Duration, error) {
	var ans [4]answer
	var d [4]time.Duration
	var errs [4]error
	minSeq := uint64(0)
	if o.afterWrite {
		minSeq = c.lastSeq
	}
	a0 := t.allocs()
	d[0] = t.call("server.handler", root, func() { ans[0], errs[0] = inProcess(t.f.primary.srv.Handler(), o, minSeq) })
	if kind == "pair" {
		t.add("server.allocs_per_req", float64(t.allocs()-a0))
	}
	d[1] = t.call("server.loopback", root, func() { ans[1], errs[1] = t.loopback(o, minSeq) })
	d[2] = t.call("router.handler", root, func() { ans[2], errs[2] = t.routed(o, minSeq) })
	d[3] = t.call("client.op", root, func() { *rec, errs[3] = c.do(o) })
	ans[3] = rec.ans
	for i, err := range errs {
		if err != nil {
			return ans, d, fmt.Errorf("%s layer %d: %w", kindNames[o.kind], i, err)
		}
	}
	if kind == "pair" {
		t.add("server.handler_ns", float64(d[0]))
		t.add("server.loopback_ns", float64(d[1]-d[0]))
		// The client's request takes the same socket hop to a replica
		// behind one more through the router: the difference is what the
		// router adds.
		t.add("router.hop_ns", float64(d[3]-d[1]))
	}
	return ans, d, nil
}

func bits(x float64) uint64 { return math.Float64bits(x) }

// read traces a pair or top-k query.
func (t *tracer) read(c *client, o *op, root int) (record, error) {
	var rec record
	var p *metapath.Path
	var err error
	d := t.call("metapath.parse", root, func() { p, err = metapath.Parse(t.g.Schema(), o.path) })
	t.add("metapath.parse_ns", float64(d))
	if err != nil {
		return rec, err
	}
	src, err := t.g.NodeIndex(p.Source(), o.src)
	if err != nil {
		return rec, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	plan := core.PlanOptions{Walks: degradeWalks}
	h0, m0 := t.cacheHits.Value(), t.cacheMisses.Value()
	a0 := t.allocs()
	var engScore float64
	var engTop []core.Scored
	var engD time.Duration
	if o.kind == kindPair {
		var dst int
		if dst, err = t.g.NodeIndex(p.Target(), o.dst); err != nil {
			return rec, err
		}
		engD = t.call("core.pair", root, func() { engScore, _, err = t.eng.PairWithPlan(ctx, p, src, dst, plan) })
		t.add("core.pair_allocs", float64(t.allocs()-a0))
		t.add("core.pair_ns", float64(engD))
	} else {
		engD = t.call("core.topk", root, func() { engTop, _, err = t.eng.TopKSearchWithPlan(ctx, p, src, o.k, 0, plan) })
		t.add("core.topk_allocs", float64(t.allocs()-a0))
		t.add("core.topk_ns", float64(engD))
	}
	t.mean("core.cache_hits", float64(t.cacheHits.Value()-h0))
	t.mean("core.cache_misses", float64(t.cacheMisses.Value()-m0))
	if err != nil {
		return rec, err
	}
	t.kernel(p, o, root)
	ans, ds, err := t.stack(c, o, root, &rec, kindNames[o.kind])
	if err != nil {
		return rec, err
	}
	if o.kind == kindPair {
		t.add("server.self_ns", float64(ds[0]-engD))
		for i, a := range ans {
			if a.Score == nil || bits(*a.Score) != bits(engScore) {
				t.disagree("pair %s %s→%s: engine %v, layer %d %v", o.path, o.src, o.dst, engScore, i, a.Score)
			}
		}
		return rec, nil
	}
	ids := t.g.NodeIDs(p.Target())
	for i, a := range ans {
		if len(a.Results) < len(engTop) {
			t.disagree("topk %s %s: engine %d results, layer %d %d", o.path, o.src, len(engTop), i, len(a.Results))
			continue
		}
		for j, s := range engTop {
			if a.Results[j].ID != ids[s.Index] || bits(a.Results[j].Score) != bits(s.Score) {
				t.disagree("topk %s %s rank %d: engine %s %v, layer %d %s %v", o.path, o.src, j,
					ids[s.Index], s.Score, i, a.Results[j].ID, a.Results[j].Score)
			}
		}
	}
	return rec, nil
}

// kernel drives Vector.MulMat with the query's half-path propagations:
// the source along the first half and, for a pair, the target back along
// the second.
func (t *tracer) kernel(p *metapath.Path, o *op, root int) {
	steps := t.stepMatrices(p)
	rev := t.stepMatrices(p.Reverse())
	h := len(steps) / 2
	flops := 0.0
	walk := func(ms []*sparse.Matrix, typ, id string) {
		i, err := t.g.NodeIndex(typ, id)
		if err != nil {
			return
		}
		v := sparse.Unit(ms[0].Rows(), i)
		for _, m := range ms {
			v.Entries(func(r int, _ float64) { flops += float64(m.RowNNZ(r)) })
			a0 := t.allocs()
			next := v
			d := t.call("sparse.vec_mulmat", root, func() { next = v.MulMat(m) })
			t.add("sparse.vec_mulmat_allocs", float64(t.allocs()-a0))
			t.add("sparse.vec_mulmat_ns", float64(d))
			v = next
		}
	}
	if h > 0 {
		walk(steps[:h], p.Source(), o.src)
		if o.kind == kindPair {
			walk(rev[:h], p.Target(), o.dst)
		}
	}
	t.mean("sparse.flops_per_op", flops)
}

// relevance traces an ensemble: relevance.Pair on the mirror engine, then
// the HTTP layers. Every member's score and the ensemble must agree bit
// for bit.
func (t *tracer) relevance(c *client, o *op, root int) (record, error) {
	var rec record
	src, err := t.g.NodeIndex(o.srcType, o.src)
	if err != nil {
		return rec, err
	}
	dst, err := t.g.NodeIndex(o.dstType, o.dst)
	if err != nil {
		return rec, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	opts := relevance.Options{
		Paths: o.paths, Weighting: relevance.WeightUniform,
		PerPathTimeout: queryTimeout, DegradeWalks: degradeWalks, DegradeGrace: 2 * time.Second,
	}
	var res *relevance.Result
	d := t.call("relevance.pair", root, func() {
		res, err = relevance.Pair(ctx, t.eng, o.srcType, src, o.dstType, dst, opts)
	})
	if err != nil {
		return rec, err
	}
	t.add("relevance.pair_ns", float64(d))
	t.mean("relevance.paths_scored", float64(len(res.Paths)))
	t.mean("core.batch_row_steps", float64(res.Stats.RowSteps))
	t.mean("core.batch_naive_row_steps", float64(res.Stats.NaiveRowSteps))
	t.mean("core.batch_chain_builds", float64(res.Stats.ChainBuilds))
	ans, _, err := t.stack(c, o, root, &rec, "relevance")
	if err != nil {
		return rec, err
	}
	want := map[string]float64{}
	for _, ps := range res.Paths {
		want[ps.Path] = ps.Score
	}
	for i, a := range ans {
		if a.Score == nil || bits(*a.Score) != bits(res.Score) {
			t.disagree("relevance %s→%s: engine %v, layer %d %v", o.src, o.dst, res.Score, i, a.Score)
		}
		if len(a.Paths) != len(want) {
			t.disagree("relevance %s→%s: engine %d members, layer %d %d", o.src, o.dst, len(want), i, len(a.Paths))
		}
		for _, m := range a.Paths {
			if w, ok := want[m.Path]; !ok || bits(w) != bits(m.Score) {
				t.disagree("relevance %s→%s member %s: engine %v, layer %d %v", o.src, o.dst, m.Path, w, i, m.Score)
			}
		}
	}
	return rec, nil
}

func hinOps(batch []edgeOp) []hin.Op {
	ops := make([]hin.Op, len(batch))
	for i, e := range batch {
		kind := hin.OpUpsertEdge
		if e.Op == "delete_edge" {
			kind = hin.OpDeleteEdge
		}
		ops[i] = hin.Op{Kind: kind, Relation: e.Relation, Src: e.Source, Dst: e.Target, Weight: e.Weight}
	}
	return ops
}

// write sends a write batch into the fleet through the router and applies
// it to the mirrors: the graph copy (hin.Apply, Fingerprint), the
// benchmark's own WAL, the mirror engine (RewarmFrom) and the shadow
// primary. In the traced phase each step is a span, and the shadow's ack
// and the graph copy must carry the primary's fingerprint.
func (t *tracer) write(c *client, o *op) (record, error) {
	on := t.active
	root := -1
	if on {
		t.req++
		root = len(t.spans)
		t.spans = append(t.spans, span{Name: "op.write", Start: t.now(), Parent: -1, Req: t.req})
		defer func() { t.spans[root].End = t.now() }()
	}
	timed := func(name string, fn func()) time.Duration {
		if !on {
			start := time.Now()
			fn()
			return time.Since(start)
		}
		return t.call(name, root, fn)
	}
	ops := hinOps(o.batch)
	var ng *hin.Graph
	var dirty *hin.Dirty
	var err error
	dApply := timed("hin.apply", func() { ng, dirty, err = t.g.Apply(ops) })
	if err != nil {
		return record{}, fmt.Errorf("mirror apply: %w", err)
	}
	var fp uint64
	dFP := timed("hin.fingerprint", func() { fp = ng.Fingerprint() })
	size0 := t.log.Size()
	dWAL := timed("wal.append", func() { _, err = t.log.Append(o.src, ops) })
	if err != nil {
		return record{}, err
	}
	ne := core.NewEngine(ng)
	var st core.RewarmStats
	dRewarm := timed("core.rewarm", func() { st, err = ne.RewarmFrom(context.Background(), t.eng, dirty) })
	if err != nil {
		return record{}, err
	}
	if t.planBase != nil {
		for k, v := range t.eng.PlanSelections() {
			t.planDone[k] += v - t.planBase[k]
		}
		t.planBase = map[string]uint64{}
	}
	t.g, t.eng = ng, ne
	t.buildTransitions()
	var shadow answer
	dMutate := timed("server.mutate", func() { shadow, err = inProcess(t.shadow.Handler(), o, 0) })
	if err != nil {
		return record{}, fmt.Errorf("shadow primary: %w", err)
	}
	var rec record
	if !on {
		rec, err = c.do(o)
		return rec, err
	}
	dRouter := t.call("router.write", root, func() {
		start := time.Now()
		rec = record{op: o}
		rec.ans, err = t.routed(o, 0)
		rec.latency = time.Since(start)
	})
	if err != nil {
		return rec, err
	}
	c.lastSeq = rec.ans.Seq
	var catchup time.Duration
	t.call("server.follower_catchup", root, func() {
		start := time.Now()
		_, err = waitFollower(t.http, t.f, rec.ans.Seq, 30*time.Second)
		catchup = time.Since(start)
	})
	if err != nil {
		return rec, err
	}
	// The relay's own cost: the same batch again under its idempotency
	// key, which the primary acknowledges as a duplicate without applying,
	// through the router and straight to the primary.
	var dupRouter, dupDirect answer
	var errDirect error
	dRelay := t.call("router.write_duplicate", root, func() { dupRouter, err = t.routed(o, 0) })
	dDirect := t.call("server.write_duplicate", root, func() { dupDirect, errDirect = t.loopback(o, 0) })
	if err != nil || errDirect != nil {
		return rec, fmt.Errorf("duplicate write: %v, %v", err, errDirect)
	}
	if dupRouter.Status != "duplicate" || dupDirect.Status != "duplicate" || dupRouter.Seq != rec.ans.Seq {
		t.disagree("write %s re-sent: router %s at %d, primary %s", o.src, dupRouter.Status, dupRouter.Seq, dupDirect.Status)
	}
	want := fmt.Sprintf("%016x", fp)
	if rec.ans.Fingerprint != want || shadow.Fingerprint != want {
		t.disagree("write %s: graph copy %s, shadow %s, primary %s", o.src, want, shadow.Fingerprint, rec.ans.Fingerprint)
	}
	t.add("hin.apply_ns", float64(dApply))
	t.add("hin.fingerprint_ns", float64(dFP))
	t.add("wal.append_ns", float64(dWAL))
	t.mean("wal.bytes_per_batch", float64(t.log.Size()-size0))
	t.add("core.rewarm_ns", float64(dRewarm))
	t.mean("core.rewarm_rebuilt", float64(st.Rebuilt))
	t.mean("core.rewarm_carried", float64(st.Carried))
	t.add("server.mutate_ns", float64(dMutate))
	t.add("router.write_ns", float64(dRouter))
	t.add("router.write_relay_ns", float64(dRelay-dDirect))
	t.add("server.follower_catchup_ms", float64(catchup)/float64(time.Millisecond))
	return rec, nil
}

// report fills in every per-layer metric and writes the spans out. A
// layer that saw no call reports 0 and is named on standard error.
func (t *tracer) report(out map[string]metric, plain, traced *runState, c *client) error {
	m := map[string]metric{}
	for name, xs := range t.ns {
		m[name] = metric{Value: median(xs)}
	}
	for name, s := range t.sum {
		m[name] = metric{Value: s / t.count[name]}
	}
	sel := t.eng.PlanSelections()
	for _, k := range planKinds {
		n := t.planDone[string(k)] + sel[string(k)] - t.planBase[string(k)]
		m["core.plan."+string(k)] = metric{float64(n), "count"}
	}
	m["core.chains_cached"] = metric{float64(t.eng.CacheStats().Chain), "count"}
	m["router.retries"] = metric{float64(t.retries.Value() - t.retries0), "count"}
	m["router.hedges"] = metric{float64(t.hedges.Value() - t.hedges0), "count"}
	m["router.stale_retries"] = metric{float64(c.staleRetries + t.stale), "count"}
	m["server.busy_retries"] = metric{float64(c.busyRetries + t.busy), "count"}
	g := t.plainGo
	m["go.gc_cycles"] = metric{float64(g.gc), "count"}
	m["go.gc_pause_ms"] = metric{float64(g.pauseNs) / 1e6, "ms"}
	m["go.alloc_bytes_per_op"] = metric{float64(g.alloc) / math.Max(1, float64(g.ops)), "B"}
	base := median(micros(plain.lat[kindPair]))
	m["trace.overhead_pct"] = metric{(median(micros(traced.lat[kindPair]))/base - 1) * 100, "%"}
	m["trace.spans"] = metric{float64(len(t.spans)), "count"}
	for _, spec := range perLayer {
		v, ok := m[spec.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: no samples for %s\n", spec.Name)
		}
		out[spec.Name] = metric{v.Value, spec.Unit}
	}
	return t.writeSpans()
}

// writeSpans saves the span log next to the build output, one JSON object
// a line, so a run can be inspected after it ends.
func (t *tracer) writeSpans() error {
	f, err := os.Create(t.spansPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
