package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// bench is the state of one benchmark run: the samples every pass adds to,
// the processes it started, and (in a traced run) the spans and the
// operations the ladder replays.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	fvldBin  string
	work     string

	m samples

	mu                sync.Mutex // guards attempted and failed
	attempted, failed int
	digest            digest

	procs []*fvld
	tr    *tracer
	ops   []*op   // operations of the traced pass, in completion order
	in    *inputs // the workload's inputs, which the ladder replays

	resumePhase time.Duration // how long the last pass's resumes took
	lad         *ladderResult
}

// samples are the raw end-to-end measurements of a run, pooled over its
// passes.
type samples struct {
	setup       []float64 // s, one per pass
	chunkMs     []float64
	ingestSteps int
	ingestSec   float64
	pointMs     []float64
	pointPairs  int
	pointSec    float64
	setMs       []float64
	resumeMs    []float64
	rssKB       int64
	diskBytes   int64
	diskSteps   int
	startMs     []float64 // fvld exec to listening
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEnd turns the pooled samples into the end-to-end metrics. Every
// workload reports every metric.
func (b *bench) endToEnd() (map[string]metric, error) {
	m := b.m
	out := map[string]metric{
		"setup_s":             {median(m.setup), "s"},
		"ingest_steps_per_s":  {float64(m.ingestSteps) / m.ingestSec, "1/s"},
		"step_chunk_p50_ms":   {quantile(m.chunkMs, 0.5), "ms"},
		"step_chunk_p90_ms":   {quantile(m.chunkMs, 0.9), "ms"},
		"point_batch_p50_ms":  {quantile(m.pointMs, 0.5), "ms"},
		"point_batch_p90_ms":  {quantile(m.pointMs, 0.9), "ms"},
		"point_queries_per_s": {float64(m.pointPairs) / m.pointSec, "1/s"},
		"set_query_p50_ms":    {quantile(m.setMs, 0.5), "ms"},
		"set_query_p90_ms":    {quantile(m.setMs, 0.9), "ms"},
		"resume_p50_ms":       {quantile(m.resumeMs, 0.5), "ms"},
		"resume_p90_ms":       {quantile(m.resumeMs, 0.9), "ms"},
		"peak_rss_mb":         {float64(m.rssKB) / 1024, "MB"},
		"disk_bytes_per_step": {float64(m.diskBytes) / float64(m.diskSteps), "B"},
	}
	return out, checkFinite(out)
}

// checkFinite rejects a metric that has no samples.
func checkFinite(ms map[string]metric) error {
	for _, name := range sortedKeys(ms) {
		if v := ms[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no samples", name)
		}
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
