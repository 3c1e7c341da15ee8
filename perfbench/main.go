// Command perfbench is the repository's serving benchmark. It generates the
// default ACM graph from a seed, boots the serving stack in process — a
// hetesim-router in front of a write primary and a snapshot-warmed WAL
// follower, each behind its own loopback socket — and drives one named
// workload through it with a single closed-loop client. Every answer is
// checked against an independent HeteSim (package ref). The last line of
// standard output is one JSON object: correct, attempted, failed and the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. See README.md.
//
//	go run . -workload warm-read -seed 1 -seconds 10 -trace 0
//	go run . -steady 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/perfbench/ref"
)

var workloads = []string{"warm-read", "adhoc-read", "write-mix"}

const (
	// setups is how many times an untraced run boots the fleet; setup_s is
	// their median. Only the last fleet serves the workload.
	setups = 7
	// warmup is run before the clock starts, so connection pools, lazily
	// built transition matrices and the runtime have settled.
	warmup = time.Second
	// closingWrites is the size of the write round that ends the read
	// workloads (see closingRound). It keeps the write path measured on
	// every workload without disturbing the reads before it.
	closingWrites = 16
	// chunk is how many operations are prepared at a time, off the clock.
	chunk = 2048
)

type config struct {
	workload  string
	seed      int64
	graphSeed int64
	seconds   int
	trace     bool
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation stream")
	flag.Int64Var(&cfg.graphSeed, "graph-seed", datagen.DefaultACMConfig().Seed,
		"seed of the generated ACM graph; the default is the graph of the repository's baseline figures")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run every workload (or the one named by -workload) this many times in fresh processes and print each metric's median and quartiles")
	flag.Parse()
	if steady > 0 {
		if err := runSteady(steady, cfg.seed, cfg.seconds, traceFlag == 1, cfg.workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag == 1
	if !known(cfg.workload) || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// writeGraph generates the default ACM graph with the given seed and
// writes it where the replicas will load it from. Every run of a workload
// serves the same graph unless asked otherwise: what --seed varies is the
// operation stream, so runs differ in the queries they send, not in the
// size of the graph they send them to.
func writeGraph(path string, seed int64) error {
	cfg := datagen.DefaultACMConfig()
	cfg.Seed = seed
	ds, err := datagen.ACM(cfg)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := hin.Write(&buf, ds.Graph); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readRef(path string) (*ref.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ref.Read(f)
}

// adhocEndpoints are the type pairs whose enumerated meta paths make the
// ad-hoc pool.
var adhocEndpoints = [][2]string{
	{"author", "term"}, {"author", "venue"}, {"author", "subject"}, {"term", "term"}, {"venue", "venue"},
}

func enumeratePool(graphPath string) ([]string, error) {
	g, err := loadGraph(graphPath)
	if err != nil {
		return nil, err
	}
	enumerated := map[[2]string][]string{}
	for _, ep := range adhocEndpoints {
		paths, err := metapath.Enumerate(g.Schema(), ep[0], ep[1], 4, 16)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			enumerated[ep] = append(enumerated[ep], p.String())
		}
	}
	return adhocPool(enumerated), nil
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runState collects what one run observed.
type runState struct {
	recs      []record
	attempted int
	failed    int
	errs      []string
	timed     bool
	lat       [numKinds][]time.Duration
	all       []time.Duration
}

func (s *runState) note(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

// exec runs one operation, through the tracer when one is given.
// It reports whether the operation succeeded.
func (s *runState) exec(c *client, tr *tracer, o *op) bool {
	s.attempted++
	var rec record
	var err error
	if tr != nil {
		rec, err = tr.do(c, o)
	} else {
		rec, err = c.do(o)
	}
	if err != nil {
		s.note(err)
		return false
	}
	s.recs = append(s.recs, rec)
	if s.timed {
		s.lat[o.kind] = append(s.lat[o.kind], rec.latency)
		s.all = append(s.all, rec.latency)
	}
	return true
}

func newGenerator(workload string, seed int64, net *ref.Network, pool []string) generator {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "warm-read":
		return newWarmRead(rng, net)
	case "adhoc-read":
		return newAdhocRead(rng, net, pool)
	}
	return &writeMix{writer: newWriter(rng, net, fmt.Sprintf("w%d-", seed))}
}

// stream hands out a generator's operations, prepared a chunk at a time.
// Operations prepared but not yet run carry over to the next phase, so
// every write that a later delete relies on is sent.
type stream struct {
	gen generator
	buf []*op
}

// drive runs operations until d of wall time has passed, not counting the
// time spent preparing them. It returns the time counted.
func drive(s *runState, c *client, tr *tracer, st *stream, d time.Duration) time.Duration {
	var paused time.Duration
	start := time.Now()
	for time.Since(start)-paused < d {
		if len(st.buf) == 0 {
			t := time.Now()
			for i := 0; i < chunk; i++ {
				o := st.gen.next()
				o.prepare()
				st.buf = append(st.buf, o)
			}
			paused += time.Since(t)
		}
		o := st.buf[0]
		st.buf = st.buf[1:]
		s.exec(c, tr, o)
	}
	return time.Since(start) - paused
}

func run(cfg config) (*result, error) {
	// Wall time per phase, reported on standard error.
	var phases []string
	last := time.Now()
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s=%.1fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	defer func() {
		fmt.Fprintf(os.Stderr, "%s seed %d phases: %s\n", cfg.workload, cfg.seed, strings.Join(phases, " "))
	}()
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	graphPath := filepath.Join(dir, "graph.json")
	if err := writeGraph(graphPath, cfg.graphSeed); err != nil {
		return nil, fmt.Errorf("generating the graph: %w", err)
	}
	net, err := readRef(graphPath)
	if err != nil {
		return nil, err
	}
	pool, err := enumeratePool(graphPath)
	if err != nil {
		return nil, err
	}
	st := &stream{gen: newGenerator(cfg.workload, cfg.seed, net, pool)}
	var closing *writer
	if cfg.workload != "write-mix" {
		closing = newWriter(rand.New(rand.NewSource(cfg.seed+1)), net, fmt.Sprintf("c%d-", cfg.seed))
	}
	heap0 := liveHeap()
	lap("inputs")

	n := setups
	if cfg.trace {
		n = 1
	}
	f, setupS, err := bootFleets(dir, graphPath, n)
	if err != nil {
		return nil, err
	}
	defer f.close()
	lap("setups")
	c := newClient(f.routerURL)
	defer c.close()

	var tr *tracer
	if cfg.trace {
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if tr, err = newTracer(f, graphPath, filepath.Join(dir, "trace"), spans); err != nil {
			return nil, err
		}
		defer tr.close()
	}

	s := &runState{}
	drive(s, c, tr, st, warmup)
	s.timed = true
	timed := time.Duration(cfg.seconds) * time.Second
	var elapsed time.Duration
	var plain runState // the untraced half of a traced run
	if cfg.trace {
		// First half untraced, second half traced, on one stream: the
		// difference in end-to-end latency is the tracing overhead.
		tr.startPlain(0)
		drive(s, c, tr, st, timed/2)
		plain = *s
		s.lat, s.all = [numKinds][]time.Duration{}, nil
		tr.begin(len(plain.all))
		elapsed = drive(s, c, tr, st, timed-timed/2)
	} else {
		elapsed = drive(s, c, nil, st, timed)
	}
	opsTimed := len(s.all)
	s.timed = false
	lap("run")

	// Check the timed phase's answers, then drop them and the checker's
	// memos before taking the live heap, which is the stack's alone.
	correct := true
	var problems []string
	fail := func(format string, args ...any) {
		correct = false
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	v := newVerifier(net)
	verify := func(recs []record) {
		for i := range recs {
			if err := v.check(&recs[i]); err != nil {
				o := recs[i].op
				fail("%s %s %s→%s: %v", kindNames[o.kind], o.path, o.src, o.dst, err)
			}
		}
		v.reset()
	}
	verify(s.recs)
	lap("check")
	sample := propertySample(s.recs)
	s.recs = nil
	values := map[string]float64{} // end-to-end, reported under endToEnd's names and units
	if !cfg.trace {
		values["setup_s"] = median(setupS)
		values["ops_per_s"] = float64(opsTimed) / elapsed.Seconds()
		values["pair_p50_us"] = median(micros(s.lat[kindPair]))
		values["topk_p50_us"] = median(micros(s.lat[kindTopK]))
		values["relevance_p50_us"] = median(micros(s.lat[kindRel]))
		all := micros(s.all)
		values["op_p90_us"] = quantile(all, 0.9)
		summarize(cfg, all, s)
		s.all, st.buf = nil, nil
		for k := range s.lat {
			if opKind(k) != kindWrite {
				s.lat[k] = nil
			}
		}
		// The follower applies writes on its own schedule; let it finish,
		// so the heap holds no half-swapped engine set.
		if _, err := waitFollower(c.http, f, c.lastSeq, 30*time.Second); err != nil {
			fail("replication: %v", err)
		}
		values["heap_live_mb"] = (liveHeap() - heap0) / (1 << 20)
	}

	lap("heap")
	if closing != nil {
		if err := closingRound(s, c, tr, f, closing); err != nil {
			fail("replication: %v", err)
		}
	}
	lap("closing")
	if tr != nil {
		tr.end()
	}
	pa, pf, err := checkProperties(c, sample)
	s.attempted += pa
	s.failed += pf
	if err != nil {
		fail("properties: %v", err)
	}
	if err := checkReplication(c, f); err != nil {
		fail("replication: %v", err)
	}
	verify(s.recs)
	lap("final-checks")
	if tr != nil && tr.mismatch != "" {
		fail("layers disagree: %s", tr.mismatch)
	}
	res := &result{Correct: correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	for _, e := range s.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "incorrect:", p)
	}

	if cfg.trace {
		if err := tr.report(res.Metrics, &plain, s, c); err != nil {
			return nil, err
		}
		return res, nil
	}
	values["write_p50_us"] = median(micros(s.lat[kindWrite]))
	for _, spec := range endToEnd {
		res.Metrics[spec.Name] = metric{values[spec.Name], spec.Unit}
	}
	return res, nil
}

// bootFleets boots the fleet n times from fresh copies of the graph file
// and returns the last fleet with every set-up's time; the others are
// closed.
func bootFleets(dir, graphPath string, n int) (*fleet, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		fd := filepath.Join(dir, fmt.Sprintf("fleet-%d", i))
		if err := prepareFleetDir(fd, graphPath); err != nil {
			return nil, nil, err
		}
		runtime.GC() // start each set-up from the same heap
		t0 := time.Now()
		f, err := startFleet(fd, precomputeSet)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return f, times, nil
		}
		if err := f.close(); err != nil {
			return nil, nil, err
		}
		os.RemoveAll(fd)
	}
}

// closingRound ends a read workload: each write is followed by a read that
// must reflect it and by a wait for the follower to apply it, so every
// write is timed on a quiet fleet and a freshly collected heap.
func closingRound(s *runState, c *client, tr *tracer, f *fleet, w *writer) error {
	for i := 0; i < closingWrites; i++ {
		wr, a := w.toggle()
		rd := w.pair("APA", a)
		rd.afterWrite = true
		wr.prepare()
		rd.prepare()
		runtime.GC()
		if s.exec(c, tr, wr) {
			s.lat[kindWrite] = append(s.lat[kindWrite], s.recs[len(s.recs)-1].latency)
		}
		s.exec(c, tr, rd)
		if _, err := waitFollower(c.http, f, c.lastSeq, 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// checkReplication waits for the follower to apply everything the primary
// acked, then requires equal wal_seq and fingerprint on both.
func checkReplication(c *client, f *fleet) error {
	p, err := readyz(c.http, f.primary.url)
	if err != nil {
		return err
	}
	if p.WALSeq != c.lastSeq {
		return fmt.Errorf("primary at wal_seq %d, client saw %d acked", p.WALSeq, c.lastSeq)
	}
	fl, err := waitFollower(c.http, f, p.WALSeq, 30*time.Second)
	if err != nil {
		return err
	}
	if fl.WALSeq != p.WALSeq || fl.Fingerprint != p.Fingerprint {
		return fmt.Errorf("follower at %d/%s, primary at %d/%s", fl.WALSeq, fl.Fingerprint, p.WALSeq, p.Fingerprint)
	}
	return nil
}

// summarize prints what the JSON line leaves out to standard error: the
// sample counts and, where the sample supports them, p99 and p99.9.
func summarize(cfg config, all []float64, s *runState) {
	ref := map[string]metric{}
	tail("op", all, ref)
	for k := opKind(0); k < numKinds; k++ {
		tail(kindNames[k], micros(s.lat[k]), ref)
		ref[kindNames[k]+"_samples"] = metric{float64(len(s.lat[k])), "count"}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "%s seed %d:", cfg.workload, cfg.seed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s=%.4g", k, ref[k].Value)
	}
	fmt.Fprintln(os.Stderr)
}
