package main

import (
	"math"
	"strings"
	"testing"

	"hetesim/perfbench/ref"
)

// toy is a small bibliographic network: three authors, four papers, two
// conferences (the Fig. 4 network of the paper plus one shared paper).
const toy = `{
 "types": [{"name": "author", "abbrev": "A"}, {"name": "paper", "abbrev": "P"}, {"name": "conference", "abbrev": "C"}],
 "relations": [{"name": "writes", "source": "author", "target": "paper"},
               {"name": "published_in", "source": "paper", "target": "conference"}],
 "nodes": {"author": ["Tom", "Mary", "Bob"], "paper": ["p1", "p2", "p3", "p4"], "conference": ["KDD", "SIGMOD"]},
 "edges": {"writes": [{"s": 0, "t": 0}, {"s": 0, "t": 1}, {"s": 1, "t": 1}, {"s": 1, "t": 2}, {"s": 2, "t": 3}, {"s": 2, "t": 2}],
           "published_in": [{"s": 0, "t": 0}, {"s": 1, "t": 0}, {"s": 2, "t": 1}, {"s": 3, "t": 1}]}
}`

func toyVerifier(t *testing.T) *verifier {
	t.Helper()
	n, err := ref.Read(strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	return newVerifier(n)
}

func score(x float64) *float64 { return &x }

// refTopK is the correct answer for src along spec, from the reference.
func refTopK(t *testing.T, v *verifier, spec, src string, k int) []hit {
	t.Helper()
	all, err := v.scores(spec, src)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := v.path(spec)
	ids := v.net.IDs(p.Target())
	var hits []hit
	taken := map[int]bool{}
	for len(hits) < k && len(hits) < len(ids) {
		best := -1
		for i, s := range all {
			if !taken[i] && (best < 0 || s > all[best]) {
				best = i
			}
		}
		taken[best] = true
		hits = append(hits, hit{ID: ids[best], Score: all[best]})
	}
	return hits
}

func TestCheckAcceptsReferenceAnswers(t *testing.T) {
	v := toyVerifier(t)
	want, err := v.pair("APA", "Tom", "Mary")
	if err != nil {
		t.Fatal(err)
	}
	o := &op{kind: kindPair, path: "APA", src: "Tom", dst: "Mary"}
	if err := v.check(&record{op: o, ans: answer{Score: score(want)}}); err != nil {
		t.Errorf("reference pair score rejected: %v", err)
	}
	top := &op{kind: kindTopK, path: "APA", src: "Mary", k: 3}
	if err := v.check(&record{op: top, ans: answer{Results: refTopK(t, v, "APA", "Mary", 3)}}); err != nil {
		t.Errorf("reference top-k rejected: %v", err)
	}
}

func TestCheckRejectsPerturbedScore(t *testing.T) {
	v := toyVerifier(t)
	want, err := v.pair("APA", "Tom", "Mary")
	if err != nil {
		t.Fatal(err)
	}
	o := &op{kind: kindPair, path: "APA", src: "Tom", dst: "Mary"}
	for _, got := range []float64{want + 1e-6, want * (1 - 1e-7), math.Nextafter(want, 2) + 1e-8} {
		if err := v.check(&record{op: o, ans: answer{Score: score(got)}}); err == nil {
			t.Errorf("score %v accepted; reference %v", got, want)
		}
	}
	if err := v.check(&record{op: o, ans: answer{Score: score(want), Approximate: true}}); err == nil {
		t.Error("an approximate answer was accepted")
	}
}

func TestCheckRejectsMisorderedTopK(t *testing.T) {
	v := toyVerifier(t)
	good := refTopK(t, v, "APA", "Mary", 3)
	if good[0].Score == good[1].Score {
		t.Fatal("toy network gives a tie at the top; the test needs distinct scores")
	}
	o := &op{kind: kindTopK, path: "APA", src: "Mary", k: 3}

	swapped := append([]hit(nil), good...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := v.check(&record{op: o, ans: answer{Results: swapped}}); err == nil {
		t.Errorf("misordered top-k %v accepted", swapped)
	}
	// Non-increasing but with the scores moved to the wrong targets.
	relabeled := append([]hit(nil), good...)
	relabeled[0].ID, relabeled[1].ID = relabeled[1].ID, relabeled[0].ID
	if err := v.check(&record{op: o, ans: answer{Results: relabeled}}); err == nil {
		t.Errorf("top-k with swapped targets %v accepted", relabeled)
	}
	// Dropping the best target for a worse one.
	o2 := &op{kind: kindTopK, path: "APA", src: "Mary", k: 1}
	if err := v.check(&record{op: o2, ans: answer{Results: good[1:2]}}); err == nil {
		t.Errorf("top-1 %v omitting the best target accepted", good[1:2])
	}
}

func TestCheckRejectsWrongEnsemble(t *testing.T) {
	v := toyVerifier(t)
	paths := []string{"APA", "APCPA"}
	var members []relPath
	sum := 0.0
	for _, p := range paths {
		s, err := v.pair(p, "Tom", "Bob")
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, relPath{Path: p, Weight: 0.5, Score: s})
		sum += 0.5 * s
	}
	o := &op{kind: kindRel, paths: paths, srcType: "author", dstType: "author", src: "Tom", dst: "Bob"}
	if err := v.check(&record{op: o, ans: answer{Score: score(sum), Paths: members}}); err != nil {
		t.Fatalf("reference ensemble rejected: %v", err)
	}
	if err := v.check(&record{op: o, ans: answer{Score: score(sum + 1e-6), Paths: members}}); err == nil {
		t.Error("ensemble score off Σ wᵢ·sᵢ accepted")
	}
	skewed := append([]relPath(nil), members...)
	skewed[0].Weight, skewed[1].Weight = 0.6, 0.4
	if err := v.check(&record{op: o, ans: answer{Score: score(sum), Paths: skewed}}); err == nil {
		t.Error("non-uniform member weights accepted")
	}
}

func TestWriteReplayChangesReference(t *testing.T) {
	v := toyVerifier(t)
	before, err := v.pair("APA", "Tom", "Bob")
	if err != nil {
		t.Fatal(err)
	}
	w := &op{kind: kindWrite, batch: []edgeOp{{Op: "upsert_edge", Relation: "writes", Source: "Bob", Target: "p1", Weight: 1}}}
	if err := v.check(&record{op: w}); err != nil {
		t.Fatal(err)
	}
	after, err := v.pair("APA", "Tom", "Bob")
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatalf("HS(Tom, Bob | APA) stayed %v across a write linking them", after)
	}
	o := &op{kind: kindPair, path: "APA", src: "Tom", dst: "Bob"}
	if err := v.check(&record{op: o, ans: answer{Score: score(before)}}); err == nil {
		t.Error("a read answered from before the write was accepted")
	}
}
