// Command fvlperf is the repository benchmark: it drives a real fvld
// process, built from the tree under test, from one load-generator process
// over at most two HTTP connections, and checks every answer against an
// in-process fvl mirror.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash fvlperf/run.sh --workload live-mix --seed 1 --seconds 25 --trace 0
//
// Workloads (all closed loop: producers wait for the ack, analysts for the
// answer, so fvld's 429 load shedding is never what gets measured):
//
//   - durable-ingest: one producer streams a BioAID run into a durable
//     session (query-efficient scheme, fvld fsyncs every step — its only
//     policy) with periodic checkpoints, then fvld is SIGKILLed and
//     restarted over the same data directory again and again, and each
//     resume is timed and checked. Write, fsync, journal and recovery path.
//   - live-mix: writes beside reads on a live session over the
//     space-efficient scheme: rounds of a step chunk, a point batch and a
//     set query, so every per-epoch cache is cold and core decoding and
//     boolmat sit on the point path.
//   - query: read-only serving with warm caches: the run is ingested during
//     set-up (query-efficient scheme), then one client sends point batches
//     while another alternates deps/revdeps set queries.
//
// Every workload reports every end-to-end metric. Where a workload's main
// traffic does not exercise a path, a small fixed side phase does: the live
// workloads measure resume as the restart-and-replay of the session's
// exported journal (a live session's recovery path), and durable-ingest
// measures point and set queries as the first reads after each restart.
//
// With --trace 1 the run instead records spans around every client call,
// replays each operation's inputs down a ladder of in-process layer entry
// points (run → core → live → durable for steps; boolmat → core → engine →
// fvl → fvld for queries; labelstore → durable → fvl → fvld for resume),
// and reports per-layer self times as differences of adjacent rungs on the
// same inputs. Spans are written to .bench_build/fvlperf/traces.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer exits nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// buildDir holds everything the benchmark builds or writes, relative to the
// checkout root it runs from.
const buildDir = ".bench_build/fvlperf"

type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"durable-ingest", runDurableIngest},
	{"live-mix", runLiveMix},
	{"query", runQuery},
}

func main() {
	name := flag.String("workload", "", "workload: durable-ingest, live-mix or query")
	seed := flag.Int64("seed", defaultSeed, "seed for the run, the view and the query streams")
	seconds := flag.Int("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fvldBin := flag.String("fvld", filepath.Join(buildDir, "bin", "fvld"), "fvld binary built from the tree under test")
	flag.Parse()
	// The mirror and the inputs make garbage between operations; collecting
	// it rarely keeps the benchmark's own GC from competing with fvld for
	// the two cores while an operation is timed.
	debug.SetGCPercent(400)

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	if _, err := os.Stat(*fvldBin); err != nil {
		fatalf("fvld binary: %v", err)
	}
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		fvldBin:  *fvldBin,
		work:     work,
		tr:       newTracer(),
	}
	err := wl.run(b)
	b.stopAll()
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	var mismatch *mismatchError
	if err != nil && !errors.As(err, &mismatch) {
		fatalf("%s: %v", *name, err)
	}
	correct := err == nil
	if !correct {
		fmt.Fprintf(os.Stderr, "fvlperf: %s: %v\n", *name, err)
	}
	var metrics map[string]metric
	var merr error
	if b.traced {
		if metrics, merr = b.perLayer(); merr == nil {
			merr = b.writeTrace()
		}
	} else {
		metrics, merr = b.endToEnd()
	}
	if merr != nil {
		fatalf("%s: %v", *name, merr)
	}
	b.report(metrics)
	out, jerr := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if jerr != nil {
		fatalf("%v", jerr)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines that precede the JSON result.
func (b *bench) report(metrics map[string]metric) {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, error_rate %.6f (ratio)\n",
		b.workload, b.seed, b.attempted, b.failed, b.errorRate())
	fmt.Printf("answer digest: %d true point answers, %d set rows (first %d ops of each stream)\n",
		b.digest.trueAnswers, b.digest.rows, digestOps)
	fmt.Printf("samples: %d set-ups, %d chunks, %d point batches, %d set queries, %d resumes\n",
		len(b.m.setup), len(b.m.chunkMs), len(b.m.pointMs), len(b.m.setMs), len(b.m.resumeMs))
	for _, n := range sortedKeys(metrics) {
		fmt.Printf("  %-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if b.traced {
		fmt.Println("span self time by name (ms, summed over the traced pass and the ladder):")
		self := b.tr.selfTimes()
		for _, n := range sortedKeys(self) {
			fmt.Printf("  %-40s %14.3f\n", n, self[n])
		}
		printMoves()
	}
}

func (b *bench) errorRate() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fvlperf: "+format+"\n", args...)
	os.Exit(2)
}
