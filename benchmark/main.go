// Command benchmark times whole nexsort.SortFile calls, NEXSORT against the
// key-path merge-sort baseline, on one generated workload, and checks every
// output. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"nexsort"
)

const (
	// setupReps is how many times a run sets up: generates the input, then
	// runs each algorithm and the reference copy once untimed. setup_s is
	// built from their total.
	setupReps = 9
	// minCycles is the least number of timed cycles (one sort with each
	// algorithm, then the reference copy), so that every run checks that
	// the ledger repeats.
	minCycles = 2
	// tracedReps is how many traced sorts of each algorithm a traced run
	// averages its per-layer times over.
	tracedReps = 8
)

var algorithms = []nexsort.Algorithm{nexsort.NEXSORT, nexsort.MergeSort}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the workload's size; the tests shrink it.
	scale float64
	// scratch holds the inputs, outputs, spill files and the spans file.
	scratch string
	// afterSort, when set, sees each output file before it is checked.
	afterSort func(path string)
}

// spansPath is where a traced run writes its spans.
func (c config) spansPath() string {
	return filepath.Join(c.scratch, c.workload+".spans.jsonl")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the benchmark ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if j := os.Getenv(childEnv); j != "" {
		os.Exit(childMain(j))
	}
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	cfg := config{scale: 1, scratch: filepath.Join(".bench_build", "work")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "hier", "workload: hier, flat, site or hier-fits")
	flag.Int64Var(&cfg.seed, "seed", pinnedSeed, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long the timed cycles run")
	flag.IntVar(&trace, "trace", 0, "1 adds traced sorts and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace != 0

	res, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	out := outcome{res.failed == 0 && res.correct, res.attempted, res.failed, res.endToEnd}
	if cfg.trace {
		out.Metrics = res.perLayer
	}
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Printf("%s %s %v %s\n", cfg.workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// result is what one run measured.
type result struct {
	// correct is false when a check outside any one sort failed, such as
	// the generated input's hash.
	correct           bool
	attempted, failed int
	endToEnd          map[string]metric
	// perLayer is filled by traced runs only.
	perLayer map[string]metric
	// samples holds every timed child's measurements.
	samples map[string][]float64
}

// bench is one run on one workload.
type bench struct {
	cfg   config
	wl    workload
	dir   string
	input string
	mem   int64
	// inputSHA and elements describe the first set-up's input.
	inputSHA string
	elements int64
	// ref is the SHA-256 of the first output that passed nexsort.Check;
	// every other output must equal it.
	ref string
	// first is each algorithm's first ledger; every later one must equal it.
	first map[nexsort.Algorithm]ledger

	attempted, failed int
	correct           bool
}

func run(cfg config) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{cfg: cfg, wl: wl, first: map[nexsort.Algorithm]ledger{}, correct: true}
	b.dir = filepath.Join(cfg.scratch, wl.name)
	b.input = filepath.Join(b.dir, "input.xml")
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if err := os.Remove(cfg.spansPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	// setupS is the time of all set-ups, setupCopyS that of the reference
	// copies among them.
	var setupS, setupCopyS float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.generate(i); err != nil {
			return nil, err
		}
		for _, alg := range algorithms {
			b.sort(alg)
		}
		c, err := b.xmlCopy()
		if err != nil {
			return nil, err
		}
		setupS += time.Since(start).Seconds()
		setupCopyS += c.WallS
	}

	samples := map[string][]float64{}

	reps := map[nexsort.Algorithm][]*childRun{}
	start := time.Now()
	for cycle := 0; cycle < minCycles || time.Since(start).Seconds() < cfg.seconds; cycle++ {
		for _, alg := range algorithms {
			if r := b.sort(alg); r != nil {
				reps[alg] = append(reps[alg], r)
				add(samples, alg.String(), r)
			}
		}
		c, err := b.xmlCopy()
		if err != nil {
			return nil, err
		}
		add(samples, "xmlcopy", c)
	}

	// Times are reported as multiples of the reference copy's, each averaged
	// over the run: the host's speed drifts by more than any bound a raw
	// time could hold, and the copy drifts with it. setup_s must stay in
	// seconds, so it is the set-up time measured in the set-ups' own copies,
	// which ran moments apart from the rest of each set-up, converted to
	// seconds on the host RESULTS.md was measured on.
	copyS := trimmedMean(samples["xmlcopy_s"])
	res := &result{endToEnd: map[string]metric{}, samples: samples}
	res.endToEnd["setup_s"] = metric{setupS / setupCopyS * b.wl.copyS, "s"}
	for _, alg := range algorithms {
		name := alg.String()
		if len(reps[alg]) == 0 {
			continue
		}
		res.endToEnd[name+"_time"] = metric{trimmedMean(samples[name+"_s"]) / copyS, "xmlcopy"}
		res.endToEnd[name+"_cpu"] = metric{trimmedMean(samples[name+"_cpu_s"]) / trimmedMean(samples["xmlcopy_cpu_s"]), "xmlcopy"}
		res.endToEnd[name+"_ios"] = metric{float64(b.first[alg].TotalIOs), "blocks"}
		res.endToEnd[name+"_rss_mb"] = metric{median(samples[name+"_rss_mb"]), "MiB"}
	}
	if cfg.trace {
		// Each traced sort follows an untraced one, so that the tracing
		// overhead compares sorts run moments apart.
		traced, untraced := map[nexsort.Algorithm][]*childRun{}, map[nexsort.Algorithm][]*childRun{}
		for i := 0; i < tracedReps; i++ {
			for _, alg := range algorithms {
				u, t := b.sort(alg), b.tracedSort(alg, i)
				if u != nil && t != nil {
					untraced[alg] = append(untraced[alg], u)
					traced[alg] = append(traced[alg], t)
				}
			}
		}
		res.perLayer = map[string]metric{}
		for _, alg := range algorithms {
			if len(traced[alg]) > 0 && len(reps[alg]) > 0 {
				layerMetrics(res.perLayer, alg, traced[alg], untraced[alg], reps[alg])
			}
		}
		res.perLayer["xmlcopy.wall_s"] = metric{copyS, "s"}
		res.perLayer["xmlcopy.cpu_s"] = metric{trimmedMean(samples["xmlcopy_cpu_s"]), "s"}
	}
	res.correct, res.attempted, res.failed = b.correct, b.attempted, b.failed
	return res, nil
}

// add appends one timed child's measurements to the samples named after it.
func add(samples map[string][]float64, name string, r *childRun) {
	samples[name+"_s"] = append(samples[name+"_s"], r.WallS)
	samples[name+"_cpu_s"] = append(samples[name+"_cpu_s"], r.CPUS)
	samples[name+"_rss_mb"] = append(samples[name+"_rss_mb"], float64(r.MaxRSSKiB)/1024)
}

// trimmedMean is the mean of the samples without the highest and the
// lowest twentieth. Sort times on a shared host are skewed and at times
// bimodal, so their median jumps between modes from run to run; the trimmed
// mean moves smoothly with the mix and still drops the worst stalls.
func trimmedMean(s []float64) float64 {
	s = sorted(s)
	k := len(s) / 20
	var sum float64
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// percentile is the nearest-rank p-th percentile of the samples.
func percentile(s []float64, p int) float64 {
	s = sorted(s)
	return s[max(0, (p*len(s)+99)/100-1)]
}

func median(s []float64) float64 {
	s = sorted(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(s []float64) []float64 {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// generate writes the input for set-up rep and checks it against the first
// set-up's and, at the pinned seed and scale, against the pinned hash.
func (b *bench) generate(rep int) error {
	f, err := os.Create(b.input)
	if err != nil {
		return err
	}
	h := sha256.New()
	st, err := nexsort.Generate(b.wl.doc(b.cfg.seed, b.cfg.scale), io.MultiWriter(f, h))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("generate %s: %w", b.wl.name, err)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if rep > 0 {
		if sum != b.inputSHA {
			b.fail("set-up %d generated input sha256 %s, the first %s", rep+1, sum, b.inputSHA)
		}
		return nil
	}
	b.inputSHA, b.elements, b.mem = sum, st.Elements, b.wl.memory(st.Bytes)
	if b.pinned() && sum != b.wl.inputSHA {
		b.fail("input sha256 %s, pinned %s", sum, b.wl.inputSHA)
	}
	log.Printf("%s: seed %d: %d elements, %d bytes, height %d; B=%d M=%d; input sha256 %s",
		b.wl.name, b.cfg.seed, st.Elements, st.Bytes, st.Height, b.wl.blockSize, b.mem, sum)
	return nil
}

func (b *bench) pinned() bool { return b.cfg.seed == pinnedSeed && b.cfg.scale == 1 }

// fail records a check outside any one sort that failed; the run goes on.
func (b *bench) fail(format string, args ...any) {
	b.correct = false
	log.Printf(b.wl.name+": "+format, args...)
}

func (b *bench) sortJob(alg nexsort.Algorithm) job {
	return job{
		Input: b.input, Output: filepath.Join(b.dir, "output.xml"), Scratch: b.dir,
		BlockSize: b.wl.blockSize, MemoryBytes: b.mem, Criterion: b.wl.criterion, Algorithm: alg,
	}
}

// sort runs one sort with SortFile in a child process and checks it. A
// failed sort is counted and logged, and yields nil.
func (b *bench) sort(alg nexsort.Algorithm) *childRun {
	return b.runSort(b.sortJob(alg))
}

// tracedSort runs the i-th traced sort of an algorithm.
func (b *bench) tracedSort(alg nexsort.Algorithm, i int) *childRun {
	j := b.sortJob(alg)
	j.Traced, j.Run, j.SpansPath = true, fmt.Sprintf("%s-%d", alg, i+1), b.cfg.spansPath()
	return b.runSort(j)
}

func (b *bench) runSort(j job) *childRun {
	b.attempted++
	defer os.Remove(j.Output)
	r, err := runChild(j)
	if err == nil {
		if b.cfg.afterSort != nil {
			b.cfg.afterSort(j.Output)
		}
		err = b.verify(j.Algorithm, j.Output, r.Ledger)
	}
	if err != nil {
		b.failed++
		log.Printf("%s: %s sort (traced %v): %v", b.wl.name, j.Algorithm, j.Traced, err)
		return nil
	}
	return r
}

// xmlCopy runs the reference copy in a child process.
func (b *bench) xmlCopy() (*childRun, error) {
	out := filepath.Join(b.dir, "copy.xml")
	defer os.Remove(out)
	return runChild(job{XMLCopy: true, Input: b.input, Output: out})
}

// verify checks one sort's output bytes and ledger. The first output is
// checked for order and element count and becomes the reference; every
// later one, of either algorithm, must equal it byte for byte.
func (b *bench) verify(alg nexsort.Algorithm, out string, led ledger) error {
	sum, err := fileSHA(out)
	if err != nil {
		return err
	}
	if b.ref == "" {
		if err := b.checkSorted(out); err != nil {
			return err
		}
		if b.pinned() && sum != b.wl.outputSHA {
			return fmt.Errorf("output sha256 %s, pinned %s", sum, b.wl.outputSHA)
		}
		st, err := os.Stat(out)
		if err != nil {
			return err
		}
		b.ref = sum
		log.Printf("%s: reference output: %d bytes, sha256 %s", b.wl.name, st.Size(), sum)
	} else if sum != b.ref {
		return fmt.Errorf("output sha256 %s differs from the reference %s", sum, b.ref)
	}
	if led.Elements != b.elements {
		return fmt.Errorf("sorted %d elements, generated %d", led.Elements, b.elements)
	}
	if first, ok := b.first[alg]; !ok {
		b.first[alg] = led
	} else if !reflect.DeepEqual(first, led) {
		return fmt.Errorf("ledger differs from the first sort's: %+v, first %+v", led, first)
	}
	return nil
}

// checkSorted runs nexsort.Check on an output.
func (b *bench) checkSorted(path string) error {
	crit, err := nexsort.ParseCriterion(b.wl.criterion)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := nexsort.Check(f, crit, 0)
	if err != nil {
		return err
	}
	if !rep.Sorted {
		return fmt.Errorf("output not sorted: %+v", rep.Violation)
	}
	if rep.Elements != b.elements {
		return fmt.Errorf("output has %d elements, generated %d", rep.Elements, b.elements)
	}
	return nil
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
