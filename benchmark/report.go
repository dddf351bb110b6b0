package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the checkout: the
// names, units, directions and regression bounds every run is judged by.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultFile is what -out writes and -compare reads: every run of a set.
type resultFile struct {
	Benchmark string      `json:"benchmark"`
	Runs      []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRun lists every metric of one run by name with its unit.
func printRun(w io.Writer, res *runResult) {
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s window  %d ops attempted, %d failed — %s\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, verdict)
	fmt.Fprint(w, "end to end\n", res.EndToEnd)
	if len(res.PerLayer) > 0 {
		fmt.Fprint(w, "per layer\n", res.PerLayer)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, f := range res.Invalid {
		fmt.Fprintln(w, "  INVALID RUN:", f)
	}
}

// values collects one end-to-end metric of one workload over the runs.
func values(runs []runResult, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

func workloadsOf(runs []runResult) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// printRepeat is the repeatability table of -repeat: per workload and
// end-to-end metric the median, quartiles and relative spread of the runs,
// and whether that spread stays inside the metric's bound.
func printRepeat(w io.Writer, b *benchmarkFile, runs []runResult) (steady bool) {
	steady = true
	fmt.Fprintf(w, "%-12s %-14s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for _, wl := range workloadsOf(runs) {
		for _, def := range b.EndToEnd {
			v := values(runs, wl, def.Name)
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			sp := spread(v)
			note := "inside"
			if def.Name != "setup_s" && sp > def.Bound {
				note, steady = "OUTSIDE", false
			}
			fmt.Fprintf(w, "%-12s %-14s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", wl, def.Name, median(v), q1, q3, sp, def.Bound, note)
		}
	}
	for _, r := range runs {
		if !r.Correct {
			steady = false
			fmt.Fprintf(w, "run of %s (seed %d) was not correct: %v %v\n", r.Workload, r.Seed, r.Failures, r.Invalid)
		}
	}
	return steady
}

// worseBy is how much worse `now` is than `base` as a share of base, in the
// metric's direction; negative when it is better.
func worseBy(def metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// printCompare judges two saved sets of runs against each other: for every
// workload and end-to-end metric the medians of both and whether the second
// is worse (or better) than the first by more than the metric's bound. Two
// sets of the same commit must agree on every row.
func printCompare(w io.Writer, b *benchmarkFile, first, second *resultFile) (agree bool) {
	agree = true
	fmt.Fprintf(w, "%-12s %-14s %12s %12s %9s %6s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "")
	for _, wl := range workloadsOf(first.Runs) {
		for _, def := range b.EndToEnd {
			a, c := values(first.Runs, wl, def.Name), values(second.Runs, wl, def.Name)
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			d := worseBy(def, median(a), median(c))
			note := "agree"
			switch {
			case d > def.Bound:
				note, agree = "WORSE", false
			case -d > def.Bound:
				note, agree = "BETTER", false
			}
			fmt.Fprintf(w, "%-12s %-14s %12.4f %12.4f %+9.4f %6.2f  %s\n", wl, def.Name, median(a), median(c), d, def.Bound, note)
		}
	}
	for _, f := range []*resultFile{first, second} {
		for _, r := range f.Runs {
			if !r.Correct {
				agree = false
				fmt.Fprintf(w, "run of %s (seed %d) was not correct: %v %v\n", r.Workload, r.Seed, r.Failures, r.Invalid)
			}
		}
	}
	if agree {
		fmt.Fprintln(w, "verdict: the two sets agree — every pair is within its bound and every run was correct")
	} else {
		fmt.Fprintln(w, "verdict: the two sets DISAGREE")
	}
	return agree
}

// medians folds the runs of a set into one result per workload holding the
// median of every metric — the form results/baseline.json is kept in.
func medians(runs []runResult) []runResult {
	var out []runResult
	for _, wl := range workloadsOf(runs) {
		m := runResult{Workload: wl, Correct: true, EndToEnd: metricSet{}, PerLayer: metricSet{}}
		collect := func(pick func(runResult) metricSet, into metricSet) {
			vals, units := map[string][]float64{}, map[string]string{}
			for _, r := range runs {
				if r.Workload != wl {
					continue
				}
				for name, v := range pick(r) {
					vals[name] = append(vals[name], v.Value)
					units[name] = v.Unit
				}
			}
			names := make([]string, 0, len(vals))
			for n := range vals {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				into.put(n, units[n], median(vals[n]))
			}
		}
		collect(func(r runResult) metricSet { return r.EndToEnd }, m.EndToEnd)
		collect(func(r runResult) metricSet { return r.PerLayer }, m.PerLayer)
		for _, r := range runs {
			if r.Workload == wl {
				m.Seed, m.Seconds = r.Seed, r.Seconds
				m.Attempted += r.Attempted
				m.Failed += r.Failed
				m.Correct = m.Correct && r.Correct
			}
		}
		out = append(out, m)
	}
	return out
}
