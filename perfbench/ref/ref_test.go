package ref

import (
	"math"
	"strings"
	"testing"
)

// fig4 is the toy network of Fig. 4 in the paper: all of Tom's papers are
// in KDD.
const fig4 = `{
 "types": [{"name": "author", "abbrev": "A"}, {"name": "paper", "abbrev": "P"}, {"name": "conference", "abbrev": "C"}],
 "relations": [{"name": "writes", "source": "author", "target": "paper"},
               {"name": "published_in", "source": "paper", "target": "conference"}],
 "nodes": {"author": ["Tom", "Mary", "Bob"], "paper": ["p1", "p2", "p3", "p4"], "conference": ["KDD", "SIGMOD"]},
 "edges": {"writes": [{"s": 0, "t": 0}, {"s": 0, "t": 1}, {"s": 1, "t": 1}, {"s": 1, "t": 2}, {"s": 2, "t": 3}],
           "published_in": [{"s": 0, "t": 0}, {"s": 1, "t": 0}, {"s": 2, "t": 1}, {"s": 3, "t": 1}]}
}`

// fig5 is the bipartite atomic relation of Fig. 5: a2 links b2, b3 and b4,
// and b3 links only a2.
const fig5 = `{
 "types": [{"name": "A", "abbrev": "A"}, {"name": "B", "abbrev": "B"}],
 "relations": [{"name": "r", "source": "A", "target": "B"}],
 "nodes": {"A": ["a1", "a2", "a3"], "B": ["b1", "b2", "b3", "b4"]},
 "edges": {"r": [{"s": 0, "t": 0}, {"s": 0, "t": 1}, {"s": 1, "t": 1}, {"s": 1, "t": 2}, {"s": 1, "t": 3}, {"s": 2, "t": 3}]}
}`

func load(t *testing.T, src string) *Network {
	t.Helper()
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func pair(t *testing.T, n *Network, spec, a, b string, raw bool) float64 {
	t.Helper()
	p, err := n.ParsePath(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.Pair(p, a, b, raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

func TestExample2(t *testing.T) {
	n := load(t, fig4)
	if got := pair(t, n, "APC", "Tom", "KDD", true); !near(got, 0.5) {
		t.Errorf("unnormalized HS(Tom, KDD | APC) = %v, want 0.5", got)
	}
	if got := pair(t, n, "APC", "Tom", "KDD", false); !near(got, 1) {
		t.Errorf("normalized HS(Tom, KDD | APC) = %v, want 1", got)
	}
	if got := pair(t, n, "APC", "Tom", "SIGMOD", false); got != 0 {
		t.Errorf("HS(Tom, SIGMOD | APC) = %v, want 0", got)
	}
	if a, b := pair(t, n, "APC", "Mary", "KDD", false), pair(t, n, "CPA", "KDD", "Mary", false); !near(a, b) {
		t.Errorf("symmetry: HS(Mary, KDD | APC) = %v but HS(KDD, Mary | CPA) = %v", a, b)
	}
}

func TestFig5EdgeObjects(t *testing.T) {
	n := load(t, fig5)
	r2, r3 := math.Sqrt(2), math.Sqrt(3)
	// Fig. 5(c): meeting probabilities over the edge objects of r.
	raw := [][]float64{
		{0.5, 0.25, 0, 0},
		{0, 1.0 / 6, 1.0 / 3, 1.0 / 6},
		{0, 0, 0, 0.5},
	}
	// Fig. 5(d): the same, normalized by the halves' lengths.
	norm := [][]float64{
		{r2 / 2, 0.5, 0, 0},
		{0, 1 / (r2 * r3), 1 / r3, 1 / (r2 * r3)},
		{0, 0, 0, r2 / 2},
	}
	for i, a := range []string{"a1", "a2", "a3"} {
		for j, b := range []string{"b1", "b2", "b3", "b4"} {
			if got := pair(t, n, "AB", a, b, true); !near(got, raw[i][j]) {
				t.Errorf("unnormalized HS(%s, %s) = %v, want %v", a, b, got, raw[i][j])
			}
			if got := pair(t, n, "AB", a, b, false); !near(got, norm[i][j]) {
				t.Errorf("normalized HS(%s, %s) = %v, want %v", a, b, got, norm[i][j])
			}
		}
	}
}

func TestApplyAndCandidates(t *testing.T) {
	n := load(t, fig4)
	p, err := n.ParsePath("APA")
	if err != nil {
		t.Fatal(err)
	}
	if got := pair(t, n, "APA", "Tom", "Bob", false); got != 0 {
		t.Fatalf("HS(Tom, Bob | APA) = %v before any write", got)
	}
	if err := n.Apply([]Op{{Relation: "writes", Src: "Bob", Dst: "p1"}}); err != nil {
		t.Fatal(err)
	}
	// Tom reaches p1, p2 at 1/2; Bob reaches p1, p4 at 1/2: cosine 1/2.
	if got := pair(t, n, "APA", "Tom", "Bob", false); !near(got, 0.5) {
		t.Errorf("HS(Tom, Bob | APA) after the write = %v, want 0.5", got)
	}
	left, err := n.Left(p, "Tom")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Candidates(p, left); len(got) != 3 {
		t.Errorf("candidates of Tom on APA = %v, want all three authors", got)
	}
	if err := n.Apply([]Op{{Delete: true, Relation: "writes", Src: "Bob", Dst: "p3"}}); err == nil {
		t.Error("deleting a missing edge was accepted")
	}
	if err := n.Apply([]Op{{Delete: true, Relation: "writes", Src: "Bob", Dst: "p1"}}); err != nil {
		t.Fatal(err)
	}
	if got := pair(t, n, "APA", "Tom", "Bob", false); got != 0 {
		t.Errorf("HS(Tom, Bob | APA) after the delete = %v, want 0", got)
	}
}
