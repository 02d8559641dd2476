package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict compares one end-to-end metric's median across two sets of runs.
type verdict struct {
	metric     string
	base, cand float64
	change     float64 // relative change, positive = worse
	bound      float64
}

func (v verdict) worse() bool { return v.change > v.bound }

// compare reports, for every end-to-end metric, how far the candidate's
// median moved from the baseline's in the metric's worse direction.
func compare(spec *benchSpec, base, cand []result) []verdict {
	var out []verdict
	for _, m := range spec.EndToEnd {
		b, c := medianOf(base, m.Name), medianOf(cand, m.Name)
		if b == 0 {
			continue
		}
		change := (c - b) / b
		if m.Better == "higher" {
			change = -change
		}
		out = append(out, verdict{metric: m.Name, base: b, cand: c, change: change, bound: m.Bound})
	}
	return out
}

func medianOf(rs []result, name string) float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return median(xs)
}

// readResults reads the result lines (the last stdout line of each run)
// from a file, one JSON object per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// runCompare implements `ledger compare BENCHMARK.json base.jsonl cand.jsonl`:
// it prints each metric's medians and exits 1 when any metric is worse than
// its bound.
func runCompare(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: ledger compare BENCHMARK.json base.jsonl candidate.jsonl")
		return 2
	}
	spec, err := loadSpec(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	base, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	cand, err := readResults(args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	code := 0
	for _, v := range compare(spec, base, cand) {
		mark := "ok"
		if v.worse() {
			mark, code = "WORSE", 1
		}
		fmt.Printf("%-22s base %12.5g  candidate %12.5g  worse by %+7.1f%% (bound %.0f%%)  %s\n",
			v.metric, v.base, v.cand, 100*v.change, 100*v.bound, mark)
	}
	return code
}
