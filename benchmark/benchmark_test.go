package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if j := os.Getenv(childEnv); j != "" {
		os.Exit(childMain(j))
	}
	os.Exit(m.Run())
}

type declaredMetric struct {
	Name, Unit string
}

// declared reads the metrics BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// smokeConfig runs the fewest timed cycles on a tiny document.
func smokeConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: pinnedSeed, trace: true, scale: 0.01, scratch: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at a tiny scale with the fewest timed
// cycles and the traced sorts. A run fails a sort whose ledger or counters
// differ from its algorithm's first sort, so a clean run shows that they
// repeat across sorts and that the traced path, whose ledger is compared
// the same way, is the SortFile path.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, wl.name)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSpans(t, cfg.spansPath(), res.perLayer)
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d", res.correct, res.failed, res.attempted)
			}
			if want := (setupReps + minCycles + 2*tracedReps) * len(algorithms); res.attempted != want {
				t.Errorf("attempted %d sorts, want %d", res.attempted, want)
			}
			for _, set := range []struct {
				declared []declaredMetric
				emitted  map[string]metric
			}{{endToEnd, res.endToEnd}, {perLayer, res.perLayer}} {
				if len(set.emitted) != len(set.declared) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(set.emitted), len(set.declared))
				}
				for _, d := range set.declared {
					if !metricName.MatchString(d.Name) {
						t.Errorf("invalid metric name %q", d.Name)
					}
					if m, ok := set.emitted[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
					}
				}
			}
		})
	}
}

// checkSpans reads a traced run's spans file. Each traced sort must have
// one sort span, every call span must be its child, and the calls of each
// kind, averaged over an algorithm's traced sorts, must give the calls
// metric.
func checkSpans(t *testing.T, path string, perLayer map[string]metric) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sorts := map[string]int{}
	calls := map[string]float64{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var s struct {
			Run, Name  string
			ID, Parent int
		}
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		alg, _, _ := strings.Cut(s.Run, "-")
		switch {
		case s.Name == "sort" && s.ID == 0 && s.Parent == -1:
			sorts[alg]++
		case slices.Contains(kindNames[:], s.Name) && s.ID > 0 && s.Parent == 0:
			calls[alg+"."+s.Name+".calls"]++
		default:
			t.Fatalf("unexpected span %+v", s)
		}
	}
	for _, alg := range algorithms {
		if sorts[alg.String()] != tracedReps {
			t.Errorf("%s: %d sort spans, want %d", alg, sorts[alg.String()], tracedReps)
		}
		for _, k := range kindNames {
			name := alg.String() + "." + k + ".calls"
			if got, want := calls[name]/tracedReps, perLayer[name].Value; got != want {
				t.Errorf("%s: spans file gives %v, metric %v", name, got, want)
			}
		}
	}
}

// TestCorruptOutputCounts corrupts the first timed output and expects
// exactly that sort to be counted as failed while the run goes on.
func TestCorruptOutputCounts(t *testing.T) {
	cfg := smokeConfig(t, "hier")
	cfg.trace = false
	sorts := 0
	cfg.afterSort = func(path string) {
		if sorts++; sorts != setupReps*len(algorithms)+1 {
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("failed=%d, want 1", res.failed)
	}
	if want := (setupReps + minCycles) * len(algorithms); res.attempted != want {
		t.Errorf("attempted %d sorts, want %d", res.attempted, want)
	}
	if got := len(res.samples["nexsort_s"]); got != minCycles-1 {
		t.Errorf("%d NEXSORT samples kept, want %d", got, minCycles-1)
	}
}

func TestStatistics(t *testing.T) {
	s := []float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 1000}
	if got := trimmedMean(s); got != 11 {
		t.Errorf("trimmedMean = %v, want 11 (the extremes dropped)", got)
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{0, 1}, {50, 11}, {80, 17}, {100, 1000}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestUnion(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{iv(0, 10)}, 10},
		{[][2]time.Duration{iv(5, 10), iv(0, 3)}, 8},
		{[][2]time.Duration{iv(0, 10), iv(2, 4), iv(8, 12)}, 12},
	} {
		if got := union(tc.ivs); got != tc.want {
			t.Errorf("union(%v) = %v, want %v", tc.ivs, got, tc.want)
		}
	}
}
