package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/router"
	"hetesim/internal/server"
	"hetesim/internal/snapshot"
)

// Fleet settings. They mirror the hetesimd and hetesim-router flag
// defaults (hedging off) except for two cadences: the router probes every
// 300 ms, as in the replicated-fleet runbook, and the follower polls every
// 10 ms, so it starts on each write as soon as the write is acked rather
// than at a phase of its poll that drifts against the client's cycle.
const (
	queryTimeout   = 10 * time.Second
	maxInflight    = 256
	degradeWalks   = 20000
	healthInterval = 300 * time.Millisecond
	followInterval = 10 * time.Millisecond
	readyTimeout   = 60 * time.Second
)

// quiet drops the program's background log lines; the benchmark's own
// output must stay parseable.
func quiet(string, ...any) {}

// replica is one hetesimd: a server.Server behind its own loopback socket.
type replica struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

// fleet is the serving stack of every workload: a router in front of a
// write primary and a second replica that boots from the primary's
// snapshot and follows its WAL through the router.
type fleet struct {
	primary, follower *replica
	router            *router.Router
	routerHTTP        *http.Server
	routerURL         string
	routerDone        chan struct{}
	transport         *http.Transport // the router's upstream connections
	cancel            context.CancelFunc
	background        sync.WaitGroup // the follower loop
}

// basePort is where the fleet's sockets go when the ports are free. The
// router places each path on a replica by hashing the path with the
// replica's URL, so fixed URLs keep that placement, and with it which
// replica's cache fills, the same from run to run.
const basePort = 39431

// listen opens the i-th fleet socket on loopback, at basePort+i when that
// port is free and on any free port otherwise.
func listen(i int) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", basePort+i))
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return hs, done
}

func loadGraph(path string) (*hin.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hin.Read(f)
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func serverOptions(graphPath, walPath string) []server.Option {
	return []server.Option{
		server.WithQueryTimeout(queryTimeout),
		server.WithMaxInflight(maxInflight),
		server.WithDegradedTopK(degradeWalks),
		server.WithReloadFrom(graphPath),
		server.WithWALPath(walPath),
		server.WithLogf(quiet),
	}
}

// prepareFleetDir gives each replica its own copy of the graph file, as
// separate hetesimd processes would have, outside the timed set-up.
func prepareFleetDir(dir, graphPath string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"primary.json", "follower.json"} {
		if err := copyFile(filepath.Join(dir, name), graphPath); err != nil {
			return err
		}
	}
	return nil
}

// startFleet boots the stack from the graph files in dir: the primary
// loads its copy, opens its WAL and materializes the precompute set; the
// follower loads its copy, opens its WAL and imports the primary's
// snapshot; the router probes both and the follower starts tailing the
// primary's WAL through it. It returns once the router answers ready.
func startFleet(dir string, precompute []string) (*fleet, error) {
	f := &fleet{}
	var lns []net.Listener
	ok := false
	defer func() {
		if !ok {
			for _, ln := range lns {
				ln.Close() // a listener already served is closed twice; harmless
			}
			f.close()
		}
	}()
	urls := make([]string, 3)
	for i := range urls {
		ln, url, err := listen(i)
		if err != nil {
			return nil, err
		}
		lns, urls[i] = append(lns, ln), url
	}
	urlP, urlF, urlR := urls[0], urls[1], urls[2]
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.transport = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
	upstream := &http.Client{Transport: f.transport, Timeout: 30 * time.Second}

	// Primary.
	gp := filepath.Join(dir, "primary.json")
	g, err := loadGraph(gp)
	if err != nil {
		return nil, err
	}
	ps := server.New(g, serverOptions(gp, filepath.Join(dir, "primary.wal"))...)
	f.primary = &replica{srv: ps, url: urlP}
	if _, err := ps.OpenWAL(); err != nil {
		return nil, fmt.Errorf("primary wal: %w", err)
	}
	for _, spec := range precompute {
		if err := ps.Precompute(spec); err != nil {
			return nil, fmt.Errorf("precompute %s: %w", spec, err)
		}
	}
	ps.MarkReady()
	f.primary.http, f.primary.done = serve(lns[0], ps.Handler())

	// Follower, warm from the primary's snapshot.
	fp := filepath.Join(dir, "follower.json")
	g2, err := loadGraph(fp)
	if err != nil {
		return nil, err
	}
	fs := server.New(g2, serverOptions(fp, filepath.Join(dir, "follower.wal"))...)
	f.follower = &replica{srv: fs, url: urlF}
	if _, err := fs.OpenWAL(); err != nil {
		return nil, fmt.Errorf("follower wal: %w", err)
	}
	snap, err := router.FetchSnapshot(ctx, upstream, urlP, 3)
	if err != nil {
		return nil, fmt.Errorf("fetching the primary's snapshot: %w", err)
	}
	if _, err := fs.ImportSnapshot(snap); err != nil {
		return nil, fmt.Errorf("importing the primary's snapshot: %w", err)
	}
	fs.MarkReady()
	f.follower.http, f.follower.done = serve(lns[1], fs.Handler())

	// Router, with the primary pinned.
	rt, err := router.New([]string{urlP, urlF},
		router.WithClient(upstream),
		router.WithHealthInterval(healthInterval),
		router.WithPrimary(urlP),
		router.WithLogf(quiet),
	)
	if err != nil {
		return nil, err
	}
	f.router, f.routerURL = rt, urlR
	rt.Start(ctx)
	f.routerHTTP, f.routerDone = serve(lns[2], rt.Handler())
	f.background.Add(1)
	go func() {
		defer f.background.Done()
		fs.RunFollower(ctx, server.FollowerOptions{
			Target:   urlR,
			Self:     urlF,
			Interval: followInterval,
			Client:   upstream,
			FetchSnapshot: func(fctx context.Context, base string) (*snapshot.Snapshot, error) {
				return router.FetchSnapshot(fctx, upstream, base, 3)
			},
			Logf: quiet,
		})
	}()
	if err := waitReady(upstream, urlR); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// waitReady polls the router's /readyz until it answers 200.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after %s (last error %v)", readyTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readyState is a replica's /readyz body, as far as the checks need it.
type readyState struct {
	WALSeq      uint64 `json:"wal_seq"`
	Fingerprint string `json:"fingerprint"`
}

func readyz(c *http.Client, base string) (readyState, error) {
	var st readyState
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding %s/readyz: %w", base, err)
	}
	return st, nil
}

// waitFollower polls the follower until it has applied seq.
func waitFollower(c *http.Client, f *fleet, seq uint64, limit time.Duration) (readyState, error) {
	deadline := time.Now().Add(limit)
	for {
		st, err := readyz(c, f.follower.url)
		if err == nil && st.WALSeq >= seq {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("follower at wal_seq %d, want %d after %s (last error %v)", st.WALSeq, seq, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the router, the follower loop and both replicas, and waits
// until every goroutine the fleet started has returned.
func (f *fleet) close() error {
	if f.cancel != nil {
		f.cancel()
	}
	f.background.Wait()
	var errs []error
	if f.routerHTTP != nil {
		f.routerHTTP.Close()
		<-f.routerDone
	}
	for _, r := range []*replica{f.primary, f.follower} {
		if r == nil {
			continue
		}
		if r.http != nil {
			r.http.Close()
			<-r.done
		}
		if err := r.srv.CloseWAL(); err != nil {
			errs = append(errs, err)
		}
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
