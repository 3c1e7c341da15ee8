package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

type hit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type relPath struct {
	Path   string  `json:"path"`
	Weight float64 `json:"weight"`
	Score  float64 `json:"score"`
	Error  string  `json:"error"`
}

// answer is the part of a response the checks read. Pair and relevance
// answers carry Score, top-k answers Results, writes Seq.
type answer struct {
	Score       *float64  `json:"score"`
	Results     []hit     `json:"results"`
	Paths       []relPath `json:"paths"`
	Partial     bool      `json:"partial"`
	Approximate bool      `json:"approximate"`
	Seq         uint64    `json:"seq"`
	Status      string    `json:"status"`
	Fingerprint string    `json:"fingerprint"`
}

// record is one completed operation, kept for the checks after the run.
type record struct {
	op      *op
	ans     answer
	minSeq  uint64 // X-Min-WAL-Seq the read carried
	latency time.Duration
}

// client is the single closed-loop client: it sends the next operation
// only once the previous one has been answered.
type client struct {
	http    *http.Client
	base    string
	lastSeq uint64 // sequence of the latest acked write
	// staleRetries counts reads re-sent because the router had not yet
	// seen their floor on any replica; busyRetries, writes re-sent because
	// the primary's write lock was held.
	staleRetries, busyRetries int
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: base,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// request builds the HTTP request of an operation against base.
func request(base string, o *op, minSeq uint64) (*http.Request, error) {
	var req *http.Request
	var err error
	if o.body != nil {
		req, err = http.NewRequest(http.MethodPost, base+o.target, bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, base+o.target, nil)
	}
	if err == nil && minSeq > 0 {
		req.Header.Set("X-Min-WAL-Seq", strconv.FormatUint(minSeq, 10))
	}
	return req, err
}

// decode reads a response body into an answer, failing on any status but
// 200.
func decode(status int, body []byte) (answer, error) {
	var a answer
	if status != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decoding answer: %w", err)
	}
	return a, nil
}

// retryWait bounds how long an operation keeps retrying a refusal the
// stack marks as transient.
const retryWait = 5 * time.Second

// do runs one operation through the router and times it from sending the
// request to having decoded the answer. Two refusals that the stack marks
// as transient with Retry-After are retried after a millisecond rather
// than the second the header asks for: a read whose floor the router has
// not yet seen replicated (503 stale_replicas, or an ensemble member
// failing so), and a write shed because the primary's write lock was held
// (503 mutation_in_flight; the idempotency key makes the resend safe). The
// wait is part of the operation's latency, and the retries are counted.
func (c *client) do(o *op) (record, error) {
	rec := record{op: o}
	if o.afterWrite {
		rec.minSeq = c.lastSeq
	}
	start := time.Now()
	for {
		refused, err := c.send(o, &rec)
		if err != nil {
			return rec, err
		}
		if refused == "" {
			break
		}
		if o.kind == kindWrite {
			c.busyRetries++
		} else {
			c.staleRetries++
		}
		if time.Since(start) > retryWait {
			return rec, fmt.Errorf("%s %s: still %s after %s", kindNames[o.kind], o.target, refused, retryWait)
		}
		time.Sleep(time.Millisecond)
	}
	rec.latency = time.Since(start)
	if o.kind == kindWrite {
		if rec.ans.Status != "applied" || rec.ans.Seq == 0 {
			return rec, fmt.Errorf("write %s acked %q at seq %d", o.src, rec.ans.Status, rec.ans.Seq)
		}
		c.lastSeq = rec.ans.Seq
	}
	return rec, nil
}

// send makes one attempt. It returns the refusal's code when the stack
// refused the operation transiently.
func (c *client) send(o *op, rec *record) (refused string, err error) {
	req, err := request(c.base, o, rec.minSeq)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if code := transient(o, rec.minSeq, resp.StatusCode, body); code != "" {
		return code, nil
	}
	rec.ans, err = decode(resp.StatusCode, body)
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", kindNames[o.kind], o.target, err)
	}
	return "", nil
}

// transient recognizes the two refusals do retries: for a read with a
// floor, 503 stale_replicas or an ensemble with a member failing so; for a
// write, 503 mutation_in_flight. It returns the refusal's code, or "".
func transient(o *op, minSeq uint64, status int, body []byte) string {
	want := "stale_replicas"
	if o.kind == kindWrite {
		want = "mutation_in_flight"
	} else if minSeq == 0 {
		return ""
	}
	if !bytes.Contains(body, []byte(want)) {
		return ""
	}
	var a struct {
		Code  string `json:"code"`
		Paths []struct {
			Code string `json:"code"`
		} `json:"paths"`
	}
	if json.Unmarshal(body, &a) != nil {
		return ""
	}
	if status == http.StatusServiceUnavailable && a.Code == want {
		return want
	}
	for _, p := range a.Paths {
		if p.Code == want {
			return want
		}
	}
	return ""
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are marshalled
	}
	return b
}
