package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so spreads read here match those computed from the JSON lines.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

// benchmarkSpec is the part of BENCHMARK.json the steadiness check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload (or only the one named) n times, each in
// a fresh process with its own seed (first, first+1, ...), and prints each
// metric's median, quartiles and spread (the interquartile distance over
// the median). With BENCHMARK.json present in
// the working directory it sets each end-to-end spread beside its bound.
func runSteady(n int, first int64, seconds int, trace bool, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for _, w := range workloads {
		if only != "" && w != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var shares, walls []string
		for i := 0; i < n; i++ {
			seed := first + int64(i)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			start := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			walls = append(walls, fmt.Sprintf("%.0f", time.Since(start).Seconds()))
			var res result
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
				return fmt.Errorf("%s seed %d: reading the result: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: answers failed their checks", w, seed)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs of %ds, failed/attempted %s, wall seconds %s\n",
			w, n, seconds, strings.Join(shares, " "), strings.Join(walls, " "))
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			q := quartiles(values[k])
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			line := fmt.Sprintf("  %-28s median %14.6g %-6s q1 %14.6g q3 %14.6g spread %.4f  runs %s",
				k, q[1], units[k], q[0], q[2], spread, compact(values[k]))
			if b, ok := bounds[k]; ok {
				verdict := "ok"
				if spread > b/3 {
					verdict = "wide"
				}
				line += fmt.Sprintf(" bound %.3f (%s)", b, verdict)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// compact lists a metric's values run by run, to four significant digits.
func compact(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, ",")
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
