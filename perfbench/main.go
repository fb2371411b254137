// Command perfbench is the repository's benchmark. It runs one of three
// workloads (paper-full, sweep-grid, serve-mixed) in this process,
// checks every output byte for byte against the golden corpus or
// against references built on the interpreted path, and prints every
// metric by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (tracing off);
// with --trace 1 they are the per-layer ledger of a separate traced
// run. Run it from the repository root (see README.md):
//
//	bash perfbench/run.sh --workload paper-full --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	var o options
	var trace int
	var writeInv bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 0, "workload seed; 0 runs the golden inputs, any other seed picks input variants and request order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure duration in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with the per-layer ledger")
	flag.BoolVar(&writeInv, "write-invariants", false, "recompute "+invariantsFile+" on the interpreted path and exit")
	flag.Parse()

	if err := checkCheckout(); err != nil {
		fatal(err)
	}
	if writeInv {
		if err := writeInvariants(); err != nil {
			fatal(err)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %v", o.seconds))
	}
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	res.printSummary(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// checkCheckout refuses to run outside a repository checkout: the
// program under test and its golden corpus must be present.
func checkCheckout() error {
	for _, p := range []string{"go.mod", goldenDir, invariantsFile} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not a repository checkout (run from its root): %w", err)
		}
	}
	return nil
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// small shrinks the traced ledger's windows and repetitions (the
	// benchmark's own smoke tests).
	small bool
	// corrupt flips one byte of every expected output before
	// measuring, so every checked operation must fail (tests).
	corrupt bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are human-readable lines printed before the JSON line:
	// sample counts, failures, flagged layers.
	notes []string
}

// set records a metric, replacing values JSON cannot carry.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// printSummary writes the human-readable lines: the notes, then each
// metric by name and unit.
func (r *result) printSummary(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from reference")
