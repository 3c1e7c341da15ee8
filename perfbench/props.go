package main

import (
	"fmt"
)

// propertySamples is how many answered pairs the property checks revisit.
const propertySamples = 40

// propertySample keeps an even spread of the run's pair queries for
// checkProperties.
func propertySample(recs []record) []*op {
	var pairs []*op
	for i := range recs {
		if recs[i].op.kind == kindPair {
			pairs = append(pairs, recs[i].op)
		}
	}
	step := len(pairs) / propertySamples
	if step == 0 {
		step = 1
	}
	var out []*op
	for i := 0; i < len(pairs); i += step {
		out = append(out, pairs[i])
	}
	return out
}

// checkProperties revisits the sampled pair queries on the final graph and
// checks Properties 3 and 4 of the paper on the stack's own
// answers: HS(a,b|P) = HS(b,a|P⁻¹), and on a symmetric path HS(a,a|P) = 1
// whenever a reaches anything along P, bounding every HS(a,·|P). Each
// revisited query is sent as a fresh operation and counted.
func checkProperties(c *client, pairs []*op) (attempted, failed int, err error) {
	ask := func(spec, src, dst string) (float64, error) {
		o := &op{kind: kindPair, path: spec, src: src, dst: dst, afterWrite: true}
		o.prepare()
		attempted++
		r, err := c.do(o)
		if err != nil {
			failed++
			return 0, err
		}
		if r.ans.Score == nil || r.ans.Approximate {
			return 0, fmt.Errorf("%s: no exact score", o.target)
		}
		return *r.ans.Score, nil
	}
	for _, p := range pairs {
		fwd, err := ask(p.path, p.src, p.dst)
		if err != nil {
			return attempted, failed, err
		}
		back, err := ask(reverseSpec(p.path), p.dst, p.src)
		if err != nil {
			return attempted, failed, err
		}
		if !near(fwd, back) || !inRange(fwd) {
			return attempted, failed, fmt.Errorf("symmetry: HS(%s,%s|%s) = %v but HS(%s,%s|%s) = %v",
				p.src, p.dst, p.path, fwd, p.dst, p.src, reverseSpec(p.path), back)
		}
		if p.path != reverseSpec(p.path) {
			continue
		}
		self, err := ask(p.path, p.src, p.src)
		if err != nil {
			return attempted, failed, err
		}
		if fwd > self+tolerance || (fwd > 0 && !near(self, 1)) {
			return attempted, failed, fmt.Errorf("self-maximum: HS(%s,%s|%s) = %v, HS(%s,%s|%s) = %v",
				p.src, p.src, p.path, self, p.src, p.dst, p.path, fwd)
		}
	}
	return attempted, failed, nil
}
