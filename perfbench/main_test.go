package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The benchmark runs from the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
}

// checkMetrics asserts every named metric is emitted with its unit
// (and, when nonZero, a value other than 0) and that nothing else is.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }, nonZero bool) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
		if nonZero && g.Value == 0 {
			t.Errorf("%s: metric %s is 0", what, m.Name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names,
// with their units (end-to-end values never 0), and passes its
// correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: name, seconds: 0.3, trace: traced, small: true})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v",
					name, traced, res.Correct, res.Failed, res.Attempted, res.notes)
			}
			if traced {
				checkMetrics(t, name+" traced", res.Metrics, spec.PerLayer, false)
			} else {
				checkMetrics(t, name, res.Metrics, spec.EndToEnd, true)
			}
		}
	}
}

// TestCorruptedReferenceFails flips a byte in every expected output:
// each workload must count the mismatches as failed operations.
func TestCorruptedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	for _, name := range workloadNames() {
		res, err := run(options{workload: name, seconds: 0.1, small: true, corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed: correct %v, %d of %d failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestHeldOutSeed checks that a non-default seed runs alternate input
// variants against references built on the interpreted path, sends a
// different request sequence, and passes its checks.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	const seed = 7
	if v := variantFor(seed); v == 1 {
		t.Fatalf("seed %d runs the golden variant", seed)
	}
	e, err := newEnv(options{workload: "paper-full", seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := preparePaperFull(e); err != nil {
		t.Fatal(err)
	}
	differ := 0
	for name, ref := range e.refs.reports {
		golden, err := os.ReadFile(filepath.Join(goldenDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, golden) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("every interpreted reference equals its golden report: the seed changed no input")
	}
	cold0, warm0 := stream(0)
	cold, warm := stream(seed)
	if reflect.DeepEqual(cold0, cold) || reflect.DeepEqual(warm0, warm) {
		t.Fatal("seed does not change the request sequence")
	}
	for _, name := range []string{"paper-full", "serve-mixed"} {
		res, err := run(options{workload: name, seed: seed, seconds: 0.3, small: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || !strings.Contains(strings.Join(res.notes, "\n"), "interpreted path") {
			t.Errorf("%s seed %d: correct %v, notes %v", name, seed, res.Correct, res.notes)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
