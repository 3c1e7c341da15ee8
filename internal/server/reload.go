package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/obs"
	"hetesim/internal/snapshot"
)

// Durability and reload observability: the snapshot lifecycle (loads,
// saves, rejected files) and the hot-reload lifecycle (swaps, failures,
// whether the current process warm-started) in the process-wide registry.
var (
	metSnapshotLoads = obs.Default().Counter("hetesim_snapshot_load_total",
		"Snapshots loaded and admitted at boot or reload.")
	metSnapshotSaves = obs.Default().Counter("hetesim_snapshot_save_total",
		"Snapshots written crash-safely to disk.")
	metSnapshotCorrupt = obs.Default().Counter("hetesim_snapshot_corrupt_total",
		"Snapshots rejected by checksum, version, or fingerprint validation.")
	metReloads = obs.Default().Counter("hetesim_reload_total",
		"Successful atomic graph hot-reloads.")
	metReloadErrors = obs.Default().Counter("hetesim_reload_errors_total",
		"Hot-reloads that failed validation and left the old graph serving.")
	metWarmStart = obs.Default().Gauge("hetesim_warm_start",
		"1 when the serving engine was warm-started from a snapshot, else 0.")
)

// ReadyState is the server's readiness lifecycle, exposed at /readyz.
type ReadyState int32

const (
	// StateCold: constructed, no warmup started; not ready for traffic.
	StateCold ReadyState = iota
	// StateWarming: background materialization running; not ready.
	StateWarming
	// StateReady: serving normally.
	StateReady
	// StateReloading: serving from the old graph while a replacement is
	// validated off to the side; still ready for traffic.
	StateReloading
	// StateReplaying: boot-time write-ahead-log replay running; the graph
	// is still catching up to its last acked mutation, so not ready.
	StateReplaying
)

func (s ReadyState) String() string {
	switch s {
	case StateCold:
		return "cold"
	case StateWarming:
		return "warming"
	case StateReady:
		return "ready"
	case StateReloading:
		return "reloading"
	case StateReplaying:
		return "replaying"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// engineSet bundles everything derived from one graph: the graph itself,
// its fingerprint, and every query engine over it. A request resolves the
// current set once and uses it throughout, so an atomic swap of the set
// pointer hot-reloads the graph while in-flight queries drain against the
// set they started with.
type engineSet struct {
	g           *hin.Graph
	fingerprint uint64
	engine      *core.Engine // normalized HeteSim (Definition 10)
	raw         *core.Engine // unnormalized (Definition 3), for ?raw=1
	pcrw        *baseline.PCRW
	pathsim     *baseline.PathSim
}

func (s *Server) newEngineSet(g *hin.Graph) *engineSet {
	e := core.NewEngine(g, s.engineOpts...)
	return &engineSet{
		g:           g,
		fingerprint: g.Fingerprint(),
		engine:      e,
		raw:         core.NewEngine(g, append(append([]core.Option(nil), s.engineOpts...), core.WithNormalization(false))...),
		pcrw:        baseline.NewPCRWFromEngine(e),
		pathsim:     baseline.NewPathSim(g),
	}
}

// hetesim picks the engine matching a query's normalization.
func (es *engineSet) hetesim(raw bool) *core.Engine {
	if raw {
		return es.raw
	}
	return es.engine
}

// current returns the engine set serving new requests. Handlers call it
// once per request and thread the result, never re-resolving mid-query.
func (s *Server) current() *engineSet { return s.cur.Load() }

// Graph returns the currently served graph (primarily for tests and the
// daemon's logging).
func (s *Server) Graph() *hin.Graph { return s.current().g }

// State returns the server's readiness lifecycle state.
func (s *Server) State() ReadyState { return ReadyState(s.state.Load()) }

func (s *Server) setState(st ReadyState) { s.state.Store(int32(st)) }

// MarkReady flips the server to StateReady. The daemon calls it (directly
// or via PrecomputeBackground) once boot-time warmup is complete.
func (s *Server) MarkReady() { s.setState(StateReady) }

// Ready reports whether the server should receive traffic: ready, or
// reloading (the old graph keeps serving during a reload).
func (s *Server) Ready() bool {
	st := s.State()
	return st == StateReady || st == StateReloading
}

// WarmStart loads the configured snapshot into the current engine set. It
// returns true when the engines were warmed; a missing snapshot file is a
// normal cold start (false, nil). A snapshot that fails checksum, version,
// fingerprint, or option validation is rejected with a reason, counted in
// hetesim_snapshot_corrupt_total, and never served (false, error).
func (s *Server) WarmStart() (bool, error) {
	if s.snapshotPath == "" {
		return false, nil
	}
	n, err := s.warmInto(s.current())
	if err != nil {
		return false, err
	}
	if n > 0 {
		metWarmStart.Set(1)
	}
	return n > 0, nil
}

// warmInto validates the snapshot against es's graph and imports its chain
// matrices into both engines, returning how many chains were admitted.
func (s *Server) warmInto(es *engineSet) (int, error) {
	snap, err := snapshot.Load(s.fsys, s.snapshotPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // cold start, not a failure
		}
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	if err := snap.CheckCompat(es.fingerprint, es.engine.PruneEps()); err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	chains, err := snapshot.DecodeChains(snap)
	if err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	n := es.engine.ImportChains(chains)
	es.raw.ImportChains(chains)
	// Embeddings ride along when present (format version 2+); a corrupt
	// embedding section rejects the snapshot like a corrupt chain would,
	// but an old snapshot without any simply warms no embeddings — they
	// are a cache and rebuild lazily.
	embeds, err := snapshot.DecodeEmbeddings(snap)
	if err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	es.engine.ImportEmbeddings(embeds)
	es.raw.ImportEmbeddings(embeds)
	metSnapshotLoads.Inc()
	if n > 0 {
		s.snapSavedAt.Store(time.Now().UnixNano())
	}
	return n, nil
}

// SaveSnapshot writes the current engines' materialized chain matrices
// crash-safely to the configured snapshot path. Concurrent calls (periodic
// saver, shutdown, post-precompute) serialize; the previous snapshot
// survives any failure.
func (s *Server) SaveSnapshot() error {
	if s.snapshotPath == "" {
		return errors.New("server: no snapshot path configured")
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	es := s.current()
	chains := es.engine.ExportChains()
	for k, m := range es.raw.ExportChains() {
		if _, ok := chains[k]; !ok {
			chains[k] = m
		}
	}
	snap := &snapshot.Snapshot{
		Fingerprint: es.fingerprint,
		PruneEps:    es.engine.PruneEps(),
	}
	if err := snapshot.EncodeChains(snap, chains); err != nil {
		return err
	}
	embeds := es.engine.ExportEmbeddings()
	for k, em := range es.raw.ExportEmbeddings() {
		if _, ok := embeds[k]; !ok {
			embeds[k] = em
		}
	}
	if err := snapshot.EncodeEmbeddings(snap, embeds); err != nil {
		return err
	}
	if err := snapshot.Save(s.fsys, s.snapshotPath, snap); err != nil {
		return err
	}
	metSnapshotSaves.Inc()
	s.snapSavedAt.Store(time.Now().UnixNano())
	return nil
}

// RunSnapshotSaver persists the chain cache every interval until ctx is
// canceled, so a crash costs at most one interval of materialization work.
// Each tick's save gets a few bounded, jitter-backed retries (counted in
// hetesim_snapshot_save_retries_total); a tick that still fails is logged
// and retried next tick — the previous snapshot stays intact throughout.
func (s *Server) RunSnapshotSaver(ctx context.Context, interval time.Duration, logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !s.Ready() {
				continue
			}
			if err := s.saveSnapshotRetry(ctx, 3, 100*time.Millisecond, logf); err != nil {
				logf("server: periodic snapshot save: %v", err)
			}
		}
	}
}

// ReloadResult summarizes a successful hot-reload.
type ReloadResult struct {
	Nodes       int           `json:"nodes"`
	Edges       int           `json:"edges"`
	WarmChains  int           `json:"warm_chains"` // chains restored from the snapshot
	Fingerprint string        `json:"fingerprint"`
	Duration    time.Duration `json:"-"`
	DurationMS  float64       `json:"duration_ms"`
}

// errReloadBusy reports a reload attempted while another is in flight.
var errReloadBusy = errors.New("server: reload already in progress")

// Reload atomically replaces the served graph: it re-reads the configured
// graph file, builds and fully validates a fresh engine set off to the
// side (including a snapshot warm start when the snapshot still matches),
// then swaps the engine-set pointer. In-flight queries finish against the
// set they started with; new requests see the new graph. Any failure
// leaves the old set serving untouched.
//
// Reload returns at the swap. After a successful swap a background
// goroutine keeps running: it re-materializes the recorded precompute
// paths on the new engine set (instant for chains the snapshot warmed)
// and then, with a snapshot path configured, rewrites the snapshot for
// the new generation. Wait blocks until it is done.
func (s *Server) Reload(ctx context.Context) (*ReloadResult, error) {
	if s.graphPath == "" {
		return nil, errors.New("server: no reload graph source configured")
	}
	if s.Draining() {
		return nil, errDraining
	}
	if !s.reloadMu.TryLock() {
		return nil, errReloadBusy
	}
	defer s.reloadMu.Unlock()

	prev := s.State()
	if prev == StateReady {
		s.setState(StateReloading)
		defer func() { s.setState(StateReady) }()
	}

	start := time.Now()
	res, err := s.reloadLocked(ctx)
	if err != nil {
		metReloadErrors.Inc()
		return nil, err
	}
	res.Duration = time.Since(start)
	res.DurationMS = float64(res.Duration) / float64(time.Millisecond)
	metReloads.Inc()
	return res, nil
}

func (s *Server) reloadLocked(ctx context.Context) (*ReloadResult, error) {
	// Mutations append to the log and swap s.cur under walMu; the reload
	// holds the same lock across its whole read-build-swap window so a
	// batch acked mid-reload can neither be clobbered from the serving
	// graph nor silently undo the reload. Concurrent mutation batches are
	// shed with 503 + Retry-After for the duration. With mutations
	// enabled, the graph file on disk may trail the served graph by the
	// log's batches: fold the log into a fresh base first, so the re-read
	// below starts from the acked state instead of dropping logged
	// mutations.
	if s.walPath != "" {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(s.graphPath)
	if err != nil {
		return nil, fmt.Errorf("server: reload: %w", err)
	}
	g, err := hin.Read(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("server: reload: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	next := s.newEngineSet(g)
	warm := 0
	if s.snapshotPath != "" {
		// A snapshot for a different graph generation simply fails the
		// fingerprint check: the reload proceeds cold rather than failing.
		if n, werr := s.warmInto(next); werr == nil {
			warm = n
		}
	}
	if warm > 0 {
		metWarmStart.Set(1)
	} else {
		metWarmStart.Set(0)
	}

	// Rebind the open log before serving the new generation: a reload that
	// adopts a different graph (an operator-placed replacement) would
	// otherwise leave the log's header naming the old base, and every
	// batch acked afterwards would be set aside — never replayed — at the
	// next boot. Reset rebinding fails the reload whole, leaving old
	// graph and old log consistent; the idempotency table rides along as
	// checkpoint records.
	if s.wal != nil && next.fingerprint != s.wal.Fingerprint() {
		if err := s.wal.Reset(next.fingerprint, s.checkpointEntriesLocked()); err != nil {
			return nil, fmt.Errorf("server: rebinding wal to reloaded graph: %w", err)
		}
		s.walBatches = 0
		metWALBytes.Set(float64(s.wal.Size()))
	}

	s.cur.Store(next)

	// Re-materialize the boot-time paths against the new graph in the
	// background (instant when the snapshot warmed them), then persist so
	// the next boot warm-starts from the new generation.
	s.specMu.Lock()
	specs := append([]string(nil), s.precomputeSpecs...)
	s.specMu.Unlock()
	s.goBackground(func() {
		for _, spec := range specs {
			if err := s.precomputeOn(next, spec); err != nil {
				s.logf("server: reload precompute %s: %v", spec, err)
			}
		}
		if s.snapshotPath != "" {
			if err := s.SaveSnapshot(); err != nil {
				s.logf("server: post-reload snapshot save: %v", err)
			}
		}
	})

	return &ReloadResult{
		Nodes:       g.TotalNodes(),
		Edges:       g.TotalEdges(),
		WarmChains:  warm,
		Fingerprint: fmt.Sprintf("%016x", next.fingerprint),
	}, nil
}

// handleReload is POST /v1/admin/reload: trigger a hot-reload and report
// the outcome. 409 when a reload is already running, 500 when the new
// graph fails validation (the old graph keeps serving).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	res, err := s.Reload(r.Context())
	if err != nil {
		if errors.Is(err, errReloadBusy) {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "reload_in_progress"})
			return
		}
		if errors.Is(err, errDraining) {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "draining"})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Code: "reload_failed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "reload": res})
}
