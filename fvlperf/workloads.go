package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/fvl"
	"repro/fvl/client"
)

// Workload sizes. The run sizes are BioAID target item counts; the step
// counts follow from the seed (about one step per eight items).
const (
	diItems           = 40000 // durable-ingest run
	diChunk           = 16    // steps per POST
	diCheckpointEvery = 1024  // acked steps between checkpoints
	diMinTail         = 500   // steps the stream runs past its last checkpoint
	diPairs           = 1024  // point queries in the batch after each restart
	diMinRestarts     = 3     // per pass, however short the budget

	// extraSetups is how many set-ups a run repeats, beyond those of its
	// passes, where a set-up is cheap (no pre-ingest): setup_s is their
	// median.
	extraSetups = 8

	lmItems          = 40000 // live-mix run
	fixedPassSeconds = 7     // budget per live-mix pass
	lmChunk          = 32
	lmPairs          = 256
	lmResumes        = 10 // journal replays per pass

	qItems   = 40000 // query run
	qChunk   = 32    // pre-ingest chunk
	qPairs   = 1024
	qWarmup  = numViews // point batches and set queries before the window
	qResumes = 16
)

// passFunc runs one pass of a workload: a fresh fvld, its set-up, and the
// measured operations; a time-bounded phase ends at deadline.
type passFunc func(i int, deadline time.Time) error

// runPasses runs time-bounded passes, each ending at its share of the
// budget, or for a traced run the traced protocol.
func (b *bench) runPasses(passes int, pass passFunc) error {
	if b.traced {
		return b.tracedRun(pass)
	}
	start := time.Now()
	for i := 0; i < passes; i++ {
		if err := pass(i, start.Add(b.budget*time.Duration(i+1)/time.Duration(passes))); err != nil {
			return err
		}
	}
	return nil
}

// runFixedPasses runs passes of fixed work, one per fixedPassSeconds of the
// budget and at least two: a fixed count, so every run of a budget pools
// the same number of samples.
func (b *bench) runFixedPasses(pass passFunc) error {
	if b.traced {
		return b.tracedRun(pass)
	}
	for i := 0; i < max(2, int(b.budget/(fixedPassSeconds*time.Second))); i++ {
		if err := pass(i, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// extraSetUps repeats the set-up of a pass (fvld start over a fresh data
// directory, scheme upload, session open) and kills the server again.
func (b *bench) extraSetUps(in *inputs, durable bool) error {
	for k := 0; k < extraSetups; k++ {
		t0 := time.Now()
		p, _, err := b.setUp(filepath.Join(b.work, fmt.Sprintf("setup-%d", k)), in, durable)
		if err != nil {
			return err
		}
		b.m.setup = append(b.m.setup, time.Since(t0).Seconds())
		if err := b.killRecording(p); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// durable-ingest
// ---------------------------------------------------------------------------

func runDurableIngest(b *bench) error {
	in, err := makeInputs(b.seed, diItems, fvl.QueryEfficient)
	if err != nil {
		return err
	}
	b.in = in
	mir, err := newMirror(in)
	if err != nil {
		return err
	}
	// Every read of this workload happens at the final epoch.
	if err := mir.advanceTo(len(in.steps)); err != nil {
		return err
	}
	return b.runPasses(2, func(i int, deadline time.Time) error {
		if i == 0 {
			if err := b.extraSetUps(in, true); err != nil {
				return err
			}
		}
		return b.durablePass(in, mir, in.queryGen(b.seed, 1), i, deadline)
	})
}

func (b *bench) durablePass(in *inputs, mir *mirror, gen *queryGen, i int, deadline time.Time) error {
	dataDir := filepath.Join(b.work, fmt.Sprintf("durable-%d", i))
	t0 := time.Now()
	p, sess, err := b.setUp(dataDir, in, true)
	if err != nil {
		return err
	}
	b.m.setup = append(b.m.setup, time.Since(t0).Seconds())

	total := len(in.steps)
	for first := 0; first < total; first += diChunk {
		n := min(diChunk, total-first)
		acked := first + n
		ckpt := acked%diCheckpointEvery == 0 && total-acked >= diMinTail
		if err := b.chunkOp(sess, in, first, n, ckpt); err != nil {
			return err
		}
	}
	size, err := dirSize(sessionDir(dataDir))
	if err != nil {
		return err
	}
	b.m.diskBytes += size
	b.m.diskSteps += total

	for k := 0; k < diMinRestarts || time.Now().Before(deadline); k++ {
		if err := b.killRecording(p); err != nil {
			return err
		}
		if p, err = b.startFvld(dataDir); err != nil {
			return err
		}
		c := clientFor(p)
		o := b.beginOp(opResume)
		var st client.SessionStatus
		d, err := b.call(o, "put-session", func(ctx context.Context) error {
			var err error
			sess, st, err = c.OpenSession(ctx, tenantName, schemeName, sessionName, true)
			return err
		})
		o.remote, o.epoch = d, st.Epoch
		b.endOp(o)
		b.attempt(err)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if !st.Resumed || st.Epoch != uint64(total) {
			return mismatchf("resumed=%v at epoch %d, acked %d", st.Resumed, st.Epoch, total)
		}
		b.m.resumeMs = append(b.m.resumeMs, ms(d))
		// The first reads after a restart are this workload's point and set
		// samples.
		view, qs := gen.pairs(in.items, diPairs)
		if err := b.pointOp(sess, mir, view, qs, true); err != nil {
			return err
		}
		view, q := gen.setQuery(in.items)
		if err := b.setOp(sess, mir, view, q, true); err != nil {
			return err
		}
	}
	return b.killRecording(p)
}

// ---------------------------------------------------------------------------
// live-mix
// ---------------------------------------------------------------------------

func runLiveMix(b *bench) error {
	in, err := makeInputs(b.seed, lmItems, fvl.SpaceEfficient)
	if err != nil {
		return err
	}
	b.in = in
	return b.runFixedPasses(func(i int, _ time.Time) error {
		if i == 0 {
			if err := b.extraSetUps(in, false); err != nil {
				return err
			}
		}
		return b.liveMixPass(in, i)
	})
}

// liveMixPass runs the rounds: a chunk, a point batch over the items
// produced so far, one set query. The epoch moves before every read, so no
// per-epoch cache is warm.
func (b *bench) liveMixPass(in *inputs, i int) error {
	dataDir := filepath.Join(b.work, fmt.Sprintf("live-mix-%d", i))
	t0 := time.Now()
	p, sess, err := b.setUp(dataDir, in, false)
	if err != nil {
		return err
	}
	b.m.setup = append(b.m.setup, time.Since(t0).Seconds())
	mir, err := newMirror(in)
	if err != nil {
		return err
	}
	gen := in.queryGen(b.seed, 2)
	for first := 0; first < len(in.steps); first += lmChunk {
		n := min(lmChunk, len(in.steps)-first)
		if err := b.chunkOp(sess, in, first, n, false); err != nil {
			return err
		}
		if err := mir.advanceTo(first + n); err != nil {
			return err
		}
		view, qs := gen.pairs(mir.items(), lmPairs)
		if err := b.pointOp(sess, mir, view, qs, true); err != nil {
			return err
		}
		view, q := gen.setQuery(mir.items())
		if err := b.setOp(sess, mir, view, q, true); err != nil {
			return err
		}
	}
	return b.liveResumes(p, sess, dataDir, in, mir, gen, lmResumes)
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

func runQuery(b *bench) error {
	in, err := makeInputs(b.seed, qItems, fvl.QueryEfficient)
	if err != nil {
		return err
	}
	b.in = in
	mir, err := newMirror(in)
	if err != nil {
		return err
	}
	if err := mir.advanceTo(len(in.steps)); err != nil {
		return err
	}
	return b.runPasses(3, func(i int, deadline time.Time) error { return b.queryPass(in, mir, i, deadline) })
}

func (b *bench) queryPass(in *inputs, mir *mirror, i int, deadline time.Time) error {
	dataDir := filepath.Join(b.work, fmt.Sprintf("query-%d", i))
	t0 := time.Now()
	p, sess, err := b.setUp(dataDir, in, false)
	if err != nil {
		return err
	}
	for first := 0; first < len(in.steps); first += qChunk {
		if err := b.chunkOp(sess, in, first, min(qChunk, len(in.steps)-first), false); err != nil {
			return err
		}
	}
	warm := in.queryGen(b.seed, 3)
	for k := 0; k < qWarmup; k++ {
		view, qs := warm.pairs(in.items, qPairs)
		if err := b.pointOp(sess, mir, view, qs, false); err != nil {
			return err
		}
		view, q := warm.setQuery(in.items)
		if err := b.setOp(sess, mir, view, q, false); err != nil {
			return err
		}
	}
	b.m.setup = append(b.m.setup, time.Since(t0).Seconds())

	// The window leaves room for the resumes that end the pass, as long as
	// they took in the pass before.
	reserve := b.resumePhase
	if reserve == 0 {
		reserve = qResumes * 200 * time.Millisecond
	}
	deadline = deadline.Add(-reserve)

	// Client A sends point batches, client B set queries, both closed loop
	// over their own connection until the deadline. Answers are checked
	// after the window, so the oracle never competes with fvld for the CPU.
	genA, genB := in.queryGen(b.seed, 4), in.queryGen(b.seed, 5)
	var points, sets []*op
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			o := b.beginOp(opPoint)
			o.view, o.queries = genA.pairs(in.items, qPairs)
			o.remote, errA = b.call(o, "depends", func(ctx context.Context) error {
				var err error
				o.results, o.epoch, err = sess.DependsOnBatch(ctx, o.view, o.queries)
				return err
			})
			b.endOp(o)
			if errA != nil {
				return
			}
			points = append(points, o)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			o := b.beginOp(opSet)
			o.view, o.expr = genB.setQuery(in.items)
			o.remote, errB = b.call(o, "query", func(ctx context.Context) error {
				a, epoch, err := sess.Query(ctx, o.view, o.expr)
				o.epoch = epoch
				if err == nil {
					o.rows = a.Items
				}
				return err
			})
			b.endOp(o)
			if errB != nil {
				return
			}
			sets = append(sets, o)
		}
	}()
	wg.Wait()
	for _, err := range []error{errA, errB} {
		if err != nil {
			b.attempt(err)
		}
	}
	var window time.Duration
	for _, o := range points {
		err := firstQueryErr(o.results)
		b.attempt(err)
		if err != nil {
			continue
		}
		trues, err := b.checkPoint(mir, o)
		if err != nil {
			return err
		}
		b.digest.addPoints(trues)
		b.m.pointMs = append(b.m.pointMs, ms(o.remote))
		b.m.pointPairs += len(o.queries)
		window += o.remote
	}
	b.m.pointSec += window.Seconds()
	for _, o := range sets {
		b.attempt(nil)
		rows, err := b.checkSet(mir, o)
		if err != nil {
			return err
		}
		b.digest.addSet(rows)
		b.m.setMs = append(b.m.setMs, ms(o.remote))
	}
	t := time.Now()
	err = b.liveResumes(p, sess, dataDir, in, mir, in.queryGen(b.seed, 6), qResumes)
	b.resumePhase = time.Since(t)
	return err
}
