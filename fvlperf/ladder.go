package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/fvl"
	"repro/internal/boolmat"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/run"
)

// How many operations of each kind the ladder replays at most, sampled
// evenly over the traced pass. Chunks are all replayed, since they build
// the state the reads run against, and so are the reads that follow a
// replayed resume, since they run against the state it brought back.
const (
	ladderPoints  = 100
	ladderSets    = 50
	ladderResumes = 20
)

// rungStat accumulates one ladder rung: time, operations (or steps) and
// heap allocations.
type rungStat struct {
	ns     float64
	n      int
	allocs float64
}

// ladderResult is what the ladder measured, keyed by rung name.
type ladderResult struct {
	rungs map[string]*rungStat

	steps                    int
	syncs, written           int64
	recoverRead              int64
	replayed                 int
	pointPairs               int
	respBytes, reqBytes      int64
	rows                     int
	labelBitsSum, labelCount int
	labelBitsMax             int
	overheadPct              float64
	processStartMs           float64
}

func (l *ladderResult) add(name string, d time.Duration, n int, allocs uint64) {
	r := l.rungs[name]
	if r == nil {
		r = &rungStat{}
		l.rungs[name] = r
	}
	r.ns += float64(d.Nanoseconds())
	r.n += n
	r.allocs += float64(allocs)
}

// allocs is the process's cumulative count of heap allocations, tiny ones
// included. Reading it stops the world briefly, outside any timed region.
func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder is the in-process state the rungs run against, advanced in
// lockstep by the traced pass's chunks: a bare run, a run with its labeler,
// a live session, a durable session over a counting filesystem at
// SyncEvery=1, and an fvl session.
type ladder struct {
	b       *bench
	in      *inputs
	scheme  *core.Scheme
	server  *engine.Server
	fvlSvc  *fvl.Service
	dir     string
	bareRun *run.Run
	labRun  *run.Run
	labeler *core.RunLabeler
	liveS   *live.Session
	fs      *countingFS
	dur     *durable.Session
	fvlS    *fvl.Session
	resumed *fvl.DurableSession // latest fvl.resume rung, read by later ops
	resumes int                 // resume rungs run, naming their directory copies
	res     *ladderResult
}

// tracedRun runs one untraced and one traced pass over the same inputs,
// takes the tracing overhead from their latencies, and replays the traced
// pass's operations down the ladder.
func (b *bench) tracedRun(pass passFunc) error {
	third := b.budget / 3
	if err := pass(0, time.Now().Add(third)); err != nil {
		return err
	}
	untraced := b.m
	b.m = samples{}
	b.tr.on = true
	if err := pass(1, time.Now().Add(third)); err != nil {
		return err
	}
	b.lad = &ladderResult{rungs: map[string]*rungStat{}}
	b.lad.overheadPct = overheadPct(untraced, b.m)
	b.lad.processStartMs = median(b.m.startMs)
	return b.runLadder()
}

// overheadPct compares the median latency of each operation kind between
// the untraced and the traced pass and averages the relative differences.
func overheadPct(untraced, traced samples) float64 {
	var sum float64
	var n int
	for _, pair := range [][2][]float64{
		{untraced.chunkMs, traced.chunkMs},
		{untraced.pointMs, traced.pointMs},
		{untraced.setMs, traced.setMs},
		{untraced.resumeMs, traced.resumeMs},
	} {
		if len(pair[0]) > 0 && len(pair[1]) > 0 {
			sum += median(pair[1])/median(pair[0]) - 1
			n++
		}
	}
	return 100 * sum / float64(n)
}

func (b *bench) newLadder(in *inputs) (*ladder, error) {
	snap, err := labelstore.LoadBytes(in.snapshot)
	if err != nil {
		return nil, err
	}
	server, err := engine.NewServerFromSnapshot(snap, 0)
	if err != nil {
		return nil, err
	}
	fvlSvc, err := fvl.OpenSnapshot(bytes.NewReader(in.snapshot))
	if err != nil {
		return nil, err
	}
	l := &ladder{
		b: b, in: in, scheme: snap.Scheme, server: server, fvlSvc: fvlSvc,
		dir: filepath.Join(b.work, "ladder"), res: b.lad,
	}
	l.bareRun = run.New(l.scheme.Spec)
	l.labRun = run.New(l.scheme.Spec)
	l.labeler = l.scheme.NewRunLabeler()
	if err := l.labeler.OnInit(l.labRun); err != nil {
		return nil, err
	}
	if l.liveS, err = live.NewSession(l.scheme); err != nil {
		return nil, err
	}
	l.fs = &countingFS{}
	if l.dur, err = durable.Create(l.scheme, filepath.Join(l.dir, "session"), durable.Options{SyncEvery: 1, FS: l.fs}); err != nil {
		return nil, err
	}
	if l.fvlS, err = fvlSvc.OpenLive(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() error {
	err := l.dur.Close()
	if l.resumed != nil {
		if cerr := l.resumed.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runLadder replays the traced operations in the order they completed.
func (b *bench) runLadder() error {
	l, err := b.newLadder(b.in)
	if err != nil {
		return err
	}
	counts := map[opKind]int{}
	for _, o := range b.ops {
		counts[o.kind]++
	}
	stride := func(kind opKind, most int) int {
		return max(1, (counts[kind]+most-1)/most)
	}
	strides := map[opKind]int{opPoint: stride(opPoint, ladderPoints), opSet: stride(opSet, ladderSets), opResume: stride(opResume, ladderResumes)}
	seen := map[opKind]int{}
	afterResume, resumeReplayed := false, false
	for _, o := range b.ops {
		k := seen[o.kind]
		seen[o.kind]++
		switch {
		case o.kind == opChunk:
			afterResume = false
		case o.kind == opResume:
			afterResume, resumeReplayed = true, k%strides[opResume] == 0
			if !resumeReplayed {
				continue
			}
		case afterResume:
			if !resumeReplayed {
				continue
			}
		case k%strides[o.kind] != 0:
			continue
		}
		switch o.kind {
		case opChunk:
			err = l.chunk(o)
		case opPoint:
			err = l.point(o)
		case opSet:
			err = l.set(o)
		case opResume:
			err = l.resume(o)
		}
		if err != nil {
			_ = l.close() // the replay error is the one to report
			return err
		}
	}
	l.labelBits()
	if err := l.mul(); err != nil {
		_ = l.close()
		return err
	}
	return l.close()
}

// timeRung runs fn once, recording its time and allocations under the rung
// name and as a ladder span carrying the operation's request ID. Rungs run
// after the operation, so their spans are not its children.
func (l *ladder) timeRung(o *op, name string, n int, fn func() error) (time.Duration, error) {
	a0 := allocs()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	a := allocs() - a0
	if err != nil {
		return d, fmt.Errorf("ladder %s: %w", name, err)
	}
	l.res.add(name, d, n, a)
	l.b.tr.record("ladder/"+name, -1, o.req, d)
	return d, nil
}

// chunk applies the chunk's steps on every ingest rung: run.Run.Apply,
// then with core.RunLabeler.OnStep, then live.Session.Apply, then the
// durable session. The durable rung checkpoints on the durable-ingest
// schedule in every workload.
func (l *ladder) chunk(o *op) error {
	n := len(o.steps)
	if _, err := l.timeRung(o, "run.apply", n, func() error {
		for _, st := range o.steps {
			if _, err := l.bareRun.Apply(st.Instance, st.Production); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := l.timeRung(o, "core.label", n, func() error {
		for _, st := range o.steps {
			step, err := l.labRun.Apply(st.Instance, st.Production)
			if err != nil {
				return err
			}
			if err := l.labeler.OnStep(l.labRun, step); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := l.timeRung(o, "live.apply", n, func() error {
		for _, st := range o.steps {
			if _, err := l.liveS.Apply(st.Instance, st.Production); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	syncs, written := l.fs.syncs, l.fs.written
	if _, err := l.timeRung(o, "durable.apply", n, func() error {
		for _, st := range o.steps {
			if _, err := l.dur.Live().Apply(st.Instance, st.Production); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.res.syncs += l.fs.syncs - syncs
	l.res.written += l.fs.written - written
	l.res.steps += n
	l.res.reqBytes += o.wire.req.Load()

	// Both fvl sessions advance untimed: the lockstep one serves reads, and
	// its epoch must match the remote ack.
	for _, st := range o.steps {
		if _, err := l.fvlS.Apply(st.Instance, st.Production); err != nil {
			return err
		}
	}
	if l.fvlS.Epoch() != o.epoch {
		return mismatchf("ladder at epoch %d, chunk acked %d", l.fvlS.Epoch(), o.epoch)
	}
	acked := o.first + n
	if acked%diCheckpointEvery == 0 && len(l.in.steps)-acked >= diMinTail {
		if _, err := l.timeRung(o, "durable.checkpoint", 1, l.dur.Checkpoint); err != nil {
			return err
		}
	}
	return nil
}

// reader is the fvl session later reads go to: the latest one the
// fvl.resume rung brought back (cold caches, like fvld after a restart), or
// the lockstep session.
func (l *ladder) reader() *fvl.Session {
	if l.resumed != nil {
		return l.resumed.Session
	}
	return l.fvlS
}

// point replays a point batch: a core.QuerySession.DependsOn loop on one
// goroutine, engine.DependsOnItemsBatch, fvl.Session.DependsOnBatch. Each
// rung's answers must equal the remote ones.
func (l *ladder) point(o *op) error {
	prefix := l.liveS.Current()
	if prefix.Epoch() != o.epoch {
		return mismatchf("ladder at epoch %d, point batch at %d", prefix.Epoch(), o.epoch)
	}
	vl, ok := l.server.Label(o.view)
	if !ok {
		return fmt.Errorf("snapshot serves no view %q", o.view)
	}
	want := make([]bool, len(o.results))
	for i, r := range o.results {
		want[i] = r.DependsOn
	}
	got := make([]bool, len(o.queries))
	qs := core.NewQuerySession()
	defer qs.Close()
	if _, err := l.timeRung(o, "core.depends", len(o.queries), func() error {
		for i, q := range o.queries {
			d1, ok1 := prefix.Label(q.From)
			d2, ok2 := prefix.Label(q.To)
			if !ok1 || !ok2 {
				return fmt.Errorf("items %d, %d not at epoch %d", q.From, q.To, o.epoch)
			}
			ok, err := qs.DependsOn(vl, d1, d2)
			if err != nil {
				return err
			}
			got[i] = ok
		}
		return nil
	}); err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return mismatchf("core rung disagrees with fvld on a point batch")
	}
	eqs := make([]engine.ItemQuery, len(o.queries))
	for i, q := range o.queries {
		eqs[i] = engine.ItemQuery{From: q.From, To: q.To}
	}
	var eres []engine.Result
	if _, err := l.timeRung(o, "engine.batch", 1, func() error {
		eres = l.server.Engine().DependsOnItemsBatch(vl, prefix, eqs)
		return nil
	}); err != nil {
		return err
	}
	for i, r := range eres {
		if r.Err != nil || r.DependsOn != want[i] {
			return mismatchf("engine rung disagrees with fvld on a point batch")
		}
	}
	var fres []fvl.Result
	d, err := l.timeRung(o, "fvl.batch", 1, func() error {
		var err error
		fres, _, err = l.reader().DependsOnBatch(context.Background(), o.view, o.queries)
		return err
	})
	if err != nil {
		return err
	}
	for i, r := range fres {
		if r.Err != nil || r.DependsOn != want[i] {
			return mismatchf("fvl rung disagrees with fvld on a point batch")
		}
	}
	l.res.add("service.point_batch", o.remote-d, 1, 0)
	l.res.pointPairs += len(o.queries)
	l.res.respBytes += o.wire.resp.Load()
	return nil
}

// set replays a set query: query.Parse + query.Compile, core.BuildItemIndex
// at the pinned prefix, engine.SetQueryBatch on that index, and
// fvl.Session.Query.
func (l *ladder) set(o *op) error {
	prefix := l.liveS.Current()
	if prefix.Epoch() != o.epoch {
		return mismatchf("ladder at epoch %d, set query at %d", prefix.Epoch(), o.epoch)
	}
	var expr *query.Expr
	if _, err := l.timeRung(o, "query.compile", 1, func() error {
		var err error
		if expr, err = query.Parse(o.expr.String()); err != nil {
			return err
		}
		_, err = query.Compile(l.server, o.view, expr)
		return err
	}); err != nil {
		return err
	}
	var idx *core.ItemIndex
	if _, err := l.timeRung(o, "core.item_index_build", 1, func() error {
		idx = core.BuildItemIndex(prefix.Epoch(), prefix.Items(), prefix.Label)
		return nil
	}); err != nil {
		return err
	}
	var sres []engine.SetResult
	if _, err := l.timeRung(o, "engine.set_exec", 1, func() error {
		sres = l.server.Engine().SetQueryBatch(l.server, o.view, idx, []*query.Expr{expr})
		return sres[0].Err
	}); err != nil {
		return err
	}
	if !slices.Equal(sres[0].Value.ItemIDs(), o.rows) {
		return mismatchf("engine rung disagrees with fvld on %s", o.expr)
	}
	var a *fvl.SetAnswer
	d, err := l.timeRung(o, "fvl.set_query", 1, func() error {
		var err error
		a, _, err = l.reader().Query(context.Background(), o.view, o.expr)
		return err
	})
	if err != nil {
		return err
	}
	if !slices.Equal(a.Items, o.rows) {
		return mismatchf("fvl rung disagrees with fvld on %s", o.expr)
	}
	l.res.add("service.set_query", o.remote-d, 1, 0)
	l.res.rows += len(o.rows)
	return nil
}

// resume replays recovery on copies of the durable rung's directory:
// labelstore.LoadCheckpointBytes of its checkpoint, durable.Recover over a
// counting filesystem, and fvl.Service.ResumeDurable, whose session serves
// the reads that follow.
func (l *ladder) resume(o *op) error {
	src := filepath.Join(l.dir, "session")
	ckpts, err := filepath.Glob(filepath.Join(src, "ckpt-*.fvlc"))
	if err != nil {
		return err
	}
	if len(ckpts) != 1 {
		return fmt.Errorf("ladder session has %d checkpoints", len(ckpts))
	}
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		return err
	}
	if _, err := l.timeRung(o, "labelstore.checkpoint_load", 1, func() error {
		_, err := labelstore.LoadCheckpointBytes(data, l.scheme)
		return err
	}); err != nil {
		return err
	}

	l.resumes++
	recDir := filepath.Join(l.dir, fmt.Sprintf("recover-%d", l.resumes))
	if err := copyDir(src, recDir); err != nil {
		return err
	}
	fs := &countingFS{}
	var rec *durable.Session
	if _, err := l.timeRung(o, "durable.recover", 1, func() error {
		var err error
		rec, err = durable.Recover(l.scheme, recDir, durable.Options{FS: fs})
		return err
	}); err != nil {
		return err
	}
	l.res.replayed = rec.Recovery().ReplayedSteps
	l.res.recoverRead += fs.read
	if uint64(rec.Live().Epoch()) != o.epoch {
		_ = rec.Close()
		return mismatchf("durable rung recovered epoch %d, fvld resumed at %d", rec.Live().Epoch(), o.epoch)
	}
	if err := rec.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(recDir); err != nil {
		return err
	}

	fvlDir := filepath.Join(l.dir, fmt.Sprintf("resume-%d", l.resumes))
	if err := copyDir(src, fvlDir); err != nil {
		return err
	}
	var ds *fvl.DurableSession
	if _, err := l.timeRung(o, "fvl.resume", 1, func() error {
		var err error
		ds, err = l.fvlSvc.ResumeDurable(fvlDir)
		return err
	}); err != nil {
		return err
	}
	if l.resumed != nil {
		if err := l.resumed.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(l.resumed.Dir()); err != nil {
			return err
		}
	}
	l.resumed = ds
	return nil
}

// labelBits measures every data label with Codec.SizeBits: the paper's
// compactness claim, a count that repeats exactly for a seed.
func (l *ladder) labelBits() {
	codec := l.scheme.Codec()
	for _, d := range l.labeler.Labels() {
		bits := codec.SizeBits(d)
		l.res.labelBitsSum += bits
		l.res.labelCount++
		l.res.labelBitsMax = max(l.res.labelBitsMax, bits)
	}
}

// mul times boolmat.Mul on random square matrices of the specification's
// port-matrix dimension (its largest module arity).
func (l *ladder) mul() error {
	dim := 1
	for _, m := range l.in.spec.Modules() {
		in, out, _ := l.in.spec.ModuleArity(m)
		dim = max(dim, in, out)
	}
	rng := rand.New(rand.NewSource(l.b.seed))
	a, c := boolmat.New(dim, dim), boolmat.New(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			a.Set(i, j, rng.Intn(2) == 1)
			c.Set(i, j, rng.Intn(2) == 1)
		}
	}
	const reps = 200_000
	var sink *boolmat.Matrix
	o := &op{span: -1}
	_, err := l.timeRung(o, "boolmat.mul", reps, func() error {
		for i := 0; i < reps; i++ {
			sink = a.Mul(c)
		}
		return nil
	})
	if err == nil && sink.Rows() != dim {
		err = fmt.Errorf("boolmat.Mul gave %d rows", sink.Rows())
	}
	return err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := fvl.WriteFileAtomic(filepath.Join(dst, e.Name()), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// perLayer turns the ladder into the per-layer metrics. Self times of the
// ingest layers are differences of adjacent rungs on the same steps.
func (b *bench) perLayer() (map[string]metric, error) {
	l := b.lad
	r := func(name string) *rungStat {
		if s := l.rungs[name]; s != nil {
			return s
		}
		return &rungStat{}
	}
	per := func(name string, scale float64) float64 { return r(name).ns / scale / float64(r(name).n) }
	perAlloc := func(name string) float64 { return r(name).allocs / float64(r(name).n) }
	steps := float64(l.steps)
	self := func(hi, lo string) float64 { return (r(hi).ns - r(lo).ns) / 1e3 / steps }
	selfAllocs := func(hi, lo string) float64 { return (r(hi).allocs - r(lo).allocs) / steps }
	out := map[string]metric{
		"run.apply_us_per_step":            {r("run.apply").ns / 1e3 / steps, "us"},
		"core.label_us_per_step":           {self("core.label", "run.apply"), "us"},
		"live.publish_us_per_step":         {self("live.apply", "core.label"), "us"},
		"durable.append_us_per_step":       {self("durable.apply", "live.apply"), "us"},
		"durable.fsyncs_per_step":          {float64(l.syncs) / steps, "count"},
		"durable.bytes_written_per_step":   {float64(l.written) / steps, "B"},
		"durable.checkpoint_ms":            {per("durable.checkpoint", 1e6), "ms"},
		"labelstore.checkpoint_load_ms":    {per("labelstore.checkpoint_load", 1e6), "ms"},
		"durable.recover_ms":               {per("durable.recover", 1e6), "ms"},
		"durable.replayed_steps":           {float64(l.replayed), "count"},
		"durable.recover_bytes_read":       {float64(l.recoverRead) / float64(r("durable.recover").n), "B"},
		"fvl.resume_ms":                    {per("fvl.resume", 1e6), "ms"},
		"service.process_start_ms":         {l.processStartMs, "ms"},
		"core.item_index_build_ms":         {per("core.item_index_build", 1e6), "ms"},
		"query.compile_us":                 {per("query.compile", 1e3), "us"},
		"engine.set_exec_ms":               {per("engine.set_exec", 1e6), "ms"},
		"fvl.set_query_ms":                 {per("fvl.set_query", 1e6), "ms"},
		"query.rows_out":                   {float64(l.rows) / float64(r("fvl.set_query").n), "count"},
		"service.set_query_self_ms":        {per("service.set_query", 1e6), "ms"},
		"boolmat.mul_ns":                   {per("boolmat.mul", 1), "ns"},
		"core.depends_ns":                  {per("core.depends", 1), "ns"},
		"engine.batch_us":                  {per("engine.batch", 1e3), "us"},
		"fvl.batch_us":                     {per("fvl.batch", 1e3), "us"},
		"service.point_batch_self_us":      {per("service.point_batch", 1e3), "us"},
		"service.response_bytes_per_query": {float64(l.respBytes) / float64(l.pointPairs), "B"},
		"service.request_bytes_per_step":   {float64(l.reqBytes) / steps, "B"},
		"core.label_bits_mean":             {float64(l.labelBitsSum) / float64(l.labelCount), "bits"},
		"core.label_bits_max":              {float64(l.labelBitsMax), "bits"},
		"trace.overhead_pct":               {l.overheadPct, "%"},

		"run.apply_allocs_per_step":                {r("run.apply").allocs / steps, "count"},
		"core.label_allocs_per_step":               {selfAllocs("core.label", "run.apply"), "count"},
		"live.publish_allocs_per_step":             {selfAllocs("live.apply", "core.label"), "count"},
		"durable.append_allocs_per_step":           {selfAllocs("durable.apply", "live.apply"), "count"},
		"durable.checkpoint_allocs_per_op":         {perAlloc("durable.checkpoint"), "count"},
		"labelstore.checkpoint_load_allocs_per_op": {perAlloc("labelstore.checkpoint_load"), "count"},
		"durable.recover_allocs_per_op":            {perAlloc("durable.recover"), "count"},
		"fvl.resume_allocs_per_op":                 {perAlloc("fvl.resume"), "count"},
		"core.item_index_build_allocs_per_op":      {perAlloc("core.item_index_build"), "count"},
		"query.compile_allocs_per_op":              {perAlloc("query.compile"), "count"},
		"engine.set_exec_allocs_per_op":            {perAlloc("engine.set_exec"), "count"},
		"fvl.set_query_allocs_per_op":              {perAlloc("fvl.set_query"), "count"},
		"boolmat.mul_allocs_per_op":                {perAlloc("boolmat.mul"), "count"},
		"core.depends_allocs_per_op":               {perAlloc("core.depends"), "count"},
		"engine.batch_allocs_per_op":               {perAlloc("engine.batch"), "count"},
		"fvl.batch_allocs_per_op":                  {perAlloc("fvl.batch"), "count"},
	}
	return out, checkFinite(out)
}
