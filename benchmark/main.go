// Command benchmark is the one benchmark of the whole system: it builds
// cmd/tmand from the checkout it sits in, runs the four named workloads
// against it over loopback, checks the answers against a brute-force
// oracle, and prints every end-to-end and per-layer metric by name. See
// README.md in this directory.
//
//	go run -C benchmark . -workload all -seed 1 -out results.json   # everything, one set
//	go run -C benchmark . -workload cold-read                       # one workload
//	go run -C benchmark . -repeat 10 -out ten.json                  # repeatability table, ten.json.medians.json
//	go run -C benchmark . -compare a.json b.json                    # two saved sets
//	bash benchmark/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0   # as the driver runs it
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// runResult is the outcome of one workload run, as written to -out and as
// summarised on the last stdout line in driver mode.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Failures  []string  `json:"failures,omitempty"`
	Invalid   []string  `json:"invalid,omitempty"`
}

// driverLine is the last stdout line of driver mode.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 timed pass only, 1 both passes for the per-layer line, -1 both passes, everything printed
	setups   int // set-ups measured per run; setup_s is their median
	repeat   int
	compare  bool
	smoke    bool
	out      string
}

func run() error {
	var o options
	flag.StringVar(&o.root, "root", "", "checkout to build cmd/tmand from (default: found above the working directory)")
	flag.StringVar(&o.workload, "workload", "all", "hot-read | cold-read | bulk-ingest | serve-mix | all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 = default, 7 = hold-out for later claims)")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed window per workload (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", -1, "0 makes only the timed pass, 1 adds counter scrapes and the traced pass (default: both passes, every metric); with one workload the result is one JSON line, last, as the driver reads it")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set this many times (seed, seed+1, …), print the repeatability table and write the medians to <out>.medians.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two saved result files given as arguments instead of running")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny data, 1 s windows, tmand served in-process: checks the plumbing, not performance")
	flag.StringVar(&o.out, "out", "", "write the result JSON here (and the spans to <out>.trace.json)")
	flag.Parse()

	if o.root == "" {
		var err error
		if o.root, err = findRoot(); err != nil {
			return err
		}
	}
	spec, err := loadBenchmarkFile(o.root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		first, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		second, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		if !printCompare(os.Stdout, spec, first, second) {
			return errors.New("the two result sets disagree")
		}
		return nil
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.setups = 3
	if o.smoke {
		o.seconds, o.setups = 1, 1
	}
	if o.trace == 1 {
		o.setups = 1 // the per-layer line does not carry setup_s
	}
	runs, spans, err := runSets(o)
	if err != nil {
		return err
	}

	if o.out != "" {
		if err := writeJSON(o.out, resultFile{Benchmark: "tman", Runs: runs}); err != nil {
			return err
		}
		if err := writeJSON(o.out+".trace.json", spans); err != nil {
			return err
		}
		if o.repeat > 1 {
			if err := writeJSON(o.out+".medians.json", resultFile{Benchmark: "tman", Runs: medians(runs)}); err != nil {
				return err
			}
		}
	}
	allCorrect := true
	for i := range runs {
		allCorrect = allCorrect && runs[i].Correct
	}
	switch {
	case o.trace >= 0 && len(runs) == 1:
		// Driver mode: one workload, one JSON line last.
		res := runs[0]
		for _, f := range append(res.Failures, res.Invalid...) {
			fmt.Fprintln(os.Stderr, "benchmark:", res.Workload+":", f)
		}
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
		if o.trace == 1 {
			line.Metrics = res.PerLayer
		}
		buf, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		return nil // the verdict is in the line; the driver reads it there
	case o.repeat > 1:
		if !printRepeat(os.Stdout, spec, runs) {
			return errors.New("not steady: a spread is outside its bound or a run was not correct")
		}
	default:
		for i := range runs {
			printRun(os.Stdout, &runs[i])
		}
	}
	if !allCorrect {
		return errors.New("a run was not correct")
	}
	return nil
}

// runSets executes the selected workloads o.repeat times, each time with
// the next seed, as the acceptance driver varies it.
func runSets(o options) ([]runResult, map[string][]span, error) {
	if runtime.NumCPU() < 2 {
		return nil, nil, errors.New("needs at least 2 CPUs: the generator and tmand share the host")
	}
	var specs []workloadSpec
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			if o.smoke {
				w = w.scaled(20)
			}
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	workDir, err := os.MkdirTemp("", "tmanbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)
	e := &env{workDir: workDir, log: os.Stderr, setups: o.setups}

	// Neither a signal nor an error may leave a tmand or its data behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.killAll()
		os.RemoveAll(workDir)
		os.Exit(130)
	}()
	defer e.killAll()

	// Several runs are made one process each, as the acceptance driver makes
	// them: run in this process one after another, each is slower than the
	// one before (the generator carries the earlier runs' heap; ten runs of
	// cold-read fell from 320 to 230 ops/s).
	apart := !o.smoke && len(specs)*o.repeat > 1
	if !o.smoke && !apart {
		if e.tmand, err = buildTmand(o.root, workDir); err != nil {
			return nil, nil, err
		}
	}
	var runs []runResult
	spans := map[string][]span{}
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range specs {
			// -trace 0 makes only the timed pass; every other mode makes both.
			var res *runResult
			var sp []span
			if seed := o.seed + int64(rep); apart {
				res, sp, err = e.runApart(o, w.name, seed)
			} else {
				res, sp, err = e.runWorkload(w, seed, o.seconds, o.trace != 0)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			runs = append(runs, *res)
			spans[w.name] = sp
		}
	}
	return runs, spans, nil
}

// runApart makes one run in a child process of this program and reads its
// result files back.
func (e *env) runApart(o options, workload string, seed int64) (*runResult, []span, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	out := filepath.Join(e.workDir, "run.json")
	cmd := exec.Command(self, "-root", o.root, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-out", out)
	cmd.Stderr = e.log
	e.setChild(cmd)
	defer e.setChild(nil)
	runErr := cmd.Run() // non-zero when the run was not correct; the files say more
	res, err := readResults(out)
	if err != nil || len(res.Runs) != 1 {
		return nil, nil, fmt.Errorf("child run left no result (%v): %v", runErr, err)
	}
	var spans map[string][]span
	raw, err := os.ReadFile(out + ".trace.json")
	if err == nil {
		err = json.Unmarshal(raw, &spans)
	}
	if err != nil {
		return nil, nil, err
	}
	return &res.Runs[0], spans[workload], nil
}

// runWorkload performs one run of one workload: the timed pass against
// tmand and, with layers set, the in-process traced pass.
func (e *env) runWorkload(w workloadSpec, seed int64, seconds float64, layers bool) (*runResult, []span, error) {
	e.logf("%s: generating inputs (seed %d)", w.name, seed)
	in := generate(w, seed, seconds)
	e.trace = layers
	e.logf("%s: timed pass, %.0f s window", w.name, seconds)
	r, err := e.runTimed(in, seconds)
	if err != nil {
		return nil, nil, err
	}
	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds,
		Attempted: r.attempted(), Failed: r.failed(),
		EndToEnd: r.endToEnd(), Failures: r.failures, Invalid: r.invalid,
	}
	var spans []span
	if layers {
		// Half a window: the pass only needs enough ops for medians.
		e.logf("%s: traced pass", w.name)
		tp, err := e.runTraced(in, seconds/2)
		if err != nil {
			return nil, nil, err
		}
		res.PerLayer = perLayer(r, tp)
		res.Failures = append(res.Failures, tp.failures...)
		res.Failed += len(tp.failures)
		spans = tp.spans
	}
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0
	return res, spans, nil
}
