package main

import (
	"fmt"
	"math"
	"sort"

	"hetesim/perfbench/ref"
)

// tolerance bounds how far a served score may sit from the reference. The
// two sum the same products in different orders, so they agree to a few
// ulps; 1e-9 on scores in [0, 1] leaves room for that and nothing else.
const tolerance = 1e-9

// verifier replays a run's operations against the reference network in
// the order they were answered: writes edit the reference, reads are
// compared with it. Half-path distributions are memoized until the next
// write.
type verifier struct {
	net   *ref.Network
	paths map[string]*ref.Path
	left  map[[2]string]ref.Dist
	right map[[2]string]ref.Dist
	index map[string]*targetIndex
	buf   []float64 // scores' result, reused from call to call
}

func newVerifier(net *ref.Network) *verifier {
	v := &verifier{net: net, paths: map[string]*ref.Path{}}
	v.reset()
	return v
}

func (v *verifier) reset() {
	v.left = map[[2]string]ref.Dist{}
	v.right = map[[2]string]ref.Dist{}
	v.index = map[string]*targetIndex{}
}

func (v *verifier) path(spec string) (*ref.Path, error) {
	if p, ok := v.paths[spec]; ok {
		return p, nil
	}
	p, err := v.net.ParsePath(spec)
	if err != nil {
		return nil, err
	}
	v.paths[spec] = p
	return p, nil
}

func (v *verifier) leftOf(spec string, p *ref.Path, src string) (ref.Dist, error) {
	k := [2]string{spec, src}
	if d, ok := v.left[k]; ok {
		return d, nil
	}
	d, err := v.net.Left(p, src)
	if err == nil {
		v.left[k] = d
	}
	return d, err
}

func (v *verifier) rightOf(spec string, p *ref.Path, dst string) (ref.Dist, error) {
	k := [2]string{spec, dst}
	if d, ok := v.right[k]; ok {
		return d, nil
	}
	d, err := v.net.Right(p, dst)
	if err == nil {
		v.right[k] = d
	}
	return d, err
}

// pair is the reference HeteSim(src, dst | spec).
func (v *verifier) pair(spec, src, dst string) (float64, error) {
	p, err := v.path(spec)
	if err != nil {
		return 0, err
	}
	a, err := v.leftOf(spec, p, src)
	if err != nil {
		return 0, err
	}
	b, err := v.rightOf(spec, p, dst)
	if err != nil {
		return 0, err
	}
	return ref.Cosine(a, b), nil
}

// targetIndex holds every target's right half of one path, inverted by
// meeting object, so all of a source's scores cost one pass over the
// columns its left half touches.
type targetIndex struct {
	cols  map[int64][]entry
	norms []float64
}

type entry struct {
	target int
	p      float64
}

func (v *verifier) buildIndex(spec string, p *ref.Path) (*targetIndex, error) {
	ids := v.net.IDs(p.Target())
	ix := &targetIndex{cols: map[int64][]entry{}, norms: make([]float64, len(ids))}
	for t, id := range ids {
		d, err := v.net.Right(p, id)
		if err != nil {
			return nil, err
		}
		ix.norms[t] = d.Norm()
		for m, x := range d {
			ix.cols[m] = append(ix.cols[m], entry{t, x})
		}
	}
	v.index[spec] = ix
	return ix, nil
}

// scores returns the reference score of every target of the path for src,
// in a buffer the next call reuses. Targets outside Candidates score
// exactly zero; a small candidate set is scored directly, a large one
// through the path's target index.
func (v *verifier) scores(spec, src string) ([]float64, error) {
	p, err := v.path(spec)
	if err != nil {
		return nil, err
	}
	a, err := v.leftOf(spec, p, src)
	if err != nil {
		return nil, err
	}
	ids := v.net.IDs(p.Target())
	if cap(v.buf) < len(ids) {
		v.buf = make([]float64, len(ids))
	}
	out := v.buf[:len(ids)]
	for i := range out {
		out[i] = 0
	}
	ix := v.index[spec]
	if ix == nil {
		cands := v.net.Candidates(p, a)
		if len(cands) <= 256 {
			for _, t := range cands {
				b, err := v.rightOf(spec, p, ids[t])
				if err != nil {
					return nil, err
				}
				out[t] = ref.Cosine(a, b)
			}
			return out, nil
		}
		if ix, err = v.buildIndex(spec, p); err != nil {
			return nil, err
		}
	}
	na := a.Norm()
	if na == 0 {
		return out, nil
	}
	for m, x := range a {
		for _, e := range ix.cols[m] {
			out[e.target] += x * e.p
		}
	}
	for t := range out {
		if out[t] != 0 {
			out[t] /= na * ix.norms[t]
		}
	}
	return out, nil
}

func near(got, want float64) bool { return math.Abs(got-want) <= tolerance }

func inRange(x float64) bool { return x >= 0 && x <= 1+tolerance }

// check compares one answered operation with the reference.
func (v *verifier) check(r *record) error {
	o := r.op
	a := r.ans
	if a.Approximate {
		return fmt.Errorf("approximate answer")
	}
	switch o.kind {
	case kindWrite:
		ops := make([]ref.Op, len(o.batch))
		for i, e := range o.batch {
			ops[i] = ref.Op{Delete: e.Op == "delete_edge", Relation: e.Relation, Src: e.Source, Dst: e.Target, Weight: e.Weight}
		}
		if err := v.net.Apply(ops); err != nil {
			return err
		}
		v.reset()
		return nil
	case kindPair:
		if a.Score == nil {
			return fmt.Errorf("no score")
		}
		want, err := v.pair(o.path, o.src, o.dst)
		if err != nil {
			return err
		}
		return checkScore(*a.Score, want)
	case kindTopK:
		all, err := v.scores(o.path, o.src)
		if err != nil {
			return err
		}
		p, _ := v.path(o.path)
		typ := p.Target()
		return checkTopK(a.Results, all, v.net.IDs(typ), func(id string) (int, bool) { return v.net.Index(typ, id) }, o.k)
	case kindRel:
		return v.checkRelevance(o, a)
	}
	return fmt.Errorf("unknown operation kind %d", o.kind)
}

func checkScore(got, want float64) error {
	if !inRange(got) {
		return fmt.Errorf("score %v outside [0, 1]", got)
	}
	if !near(got, want) {
		return fmt.Errorf("score %v, reference %v", got, want)
	}
	return nil
}

// checkTopK checks a top-k answer against the reference scores of every
// target: the right length, no repeats, scores non-increasing and equal to
// the reference, and no omitted target scoring above the last one kept.
func checkTopK(hits []hit, all []float64, ids []string, index func(string) (int, bool), k int) error {
	want := k
	if len(ids) < want {
		want = len(ids)
	}
	if len(hits) != want {
		return fmt.Errorf("%d results, want %d", len(hits), want)
	}
	kept := map[int]bool{}
	for i, h := range hits {
		t, ok := index(h.ID)
		if !ok || kept[t] {
			return fmt.Errorf("result %d: unknown or repeated target %q", i, h.ID)
		}
		kept[t] = true
		if i > 0 && h.Score > hits[i-1].Score {
			return fmt.Errorf("result %d (%s, %v) ranks above %v: not non-increasing", i, h.ID, h.Score, hits[i-1].Score)
		}
		if err := checkScore(h.Score, all[t]); err != nil {
			return fmt.Errorf("result %d (%s): %w", i, h.ID, err)
		}
	}
	if len(hits) == 0 {
		return nil
	}
	floor := hits[len(hits)-1].Score
	for t, s := range all {
		if !kept[t] && s > floor+tolerance {
			return fmt.Errorf("omitted target %s scores %v in the reference, above the last kept %v", ids[t], s, floor)
		}
	}
	return nil
}

// checkRelevance checks an ensemble: no member failed, the members are the
// pinned paths (or distinct paths between the endpoint types), each member
// weighs 1/n and scores as the reference does, and the ensemble score is
// Σ wᵢ·sᵢ over the reference scores.
func (v *verifier) checkRelevance(o *op, a answer) error {
	if a.Partial || a.Score == nil {
		return fmt.Errorf("partial ensemble")
	}
	if len(a.Paths) == 0 {
		return fmt.Errorf("no member paths")
	}
	if o.paths != nil {
		got := make([]string, len(a.Paths))
		for i, m := range a.Paths {
			got[i] = m.Path
		}
		want := append([]string(nil), o.paths...)
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("members %v, pinned %v", got, want)
		}
	}
	seen := map[string]bool{}
	n := float64(len(a.Paths))
	sum := 0.0
	for _, m := range a.Paths {
		if m.Error != "" {
			return fmt.Errorf("member %s failed: %s", m.Path, m.Error)
		}
		p, err := v.path(m.Path)
		if err != nil {
			return fmt.Errorf("member %s: %w", m.Path, err)
		}
		if seen[m.Path] || p.Source() != o.srcType || p.Target() != o.dstType {
			return fmt.Errorf("member %s repeats or does not join %s and %s", m.Path, o.srcType, o.dstType)
		}
		seen[m.Path] = true
		if !near(m.Weight, 1/n) {
			return fmt.Errorf("member %s weighs %v, want 1/%v", m.Path, m.Weight, n)
		}
		s, err := v.pair(m.Path, o.src, o.dst)
		if err != nil {
			return err
		}
		if err := checkScore(m.Score, s); err != nil {
			return fmt.Errorf("member %s: %w", m.Path, err)
		}
		sum += m.Weight * s
	}
	if !near(*a.Score, sum) {
		return fmt.Errorf("ensemble score %v, Σ wᵢ·sᵢ over the reference %v", *a.Score, sum)
	}
	return nil
}
