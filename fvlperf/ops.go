package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/fvl"
	"repro/fvl/client"
)

const (
	tenantName  = "bench"
	schemeName  = "bioaid"
	sessionName = "run"
)

// setUp starts fvld over dataDir, registers the scheme and opens the
// session: everything between a process start and the first operation.
func (b *bench) setUp(dataDir string, in *inputs, durable bool) (*fvld, *client.Session, error) {
	p, err := b.startFvld(dataDir)
	if err != nil {
		return nil, nil, err
	}
	c := clientFor(p)
	ctx := context.Background()
	if err := c.CreateTenant(ctx, tenantName); err != nil {
		return nil, nil, fmt.Errorf("create tenant: %w", err)
	}
	if _, err := c.RegisterScheme(ctx, tenantName, schemeName, bytes.NewReader(in.snapshot)); err != nil {
		return nil, nil, fmt.Errorf("register scheme: %w", err)
	}
	sess, st, err := c.OpenSession(ctx, tenantName, schemeName, sessionName, durable)
	if err != nil {
		return nil, nil, fmt.Errorf("open session: %w", err)
	}
	if st.Epoch != 0 {
		return nil, nil, fmt.Errorf("fresh session opened at epoch %d", st.Epoch)
	}
	return p, sess, nil
}

// sessionDir is where fvld keeps the durable session under dataDir.
func sessionDir(dataDir string) string {
	return filepath.Join(dataDir, tenantName, schemeName, "sessions", sessionName)
}

// attempt counts one operation and, if err is set, its failure: a transport
// error, a non-2xx reply, or a per-query error.
func (b *bench) attempt(err error) {
	b.mu.Lock()
	b.attempted++
	if err != nil {
		b.failed++
	}
	b.mu.Unlock()
}

// chunkOp streams steps [first, first+n) and requires an exact ack. With
// ckpt it then checkpoints, and the checkpoint counts into the chunk's
// latency: it is the producer's wait before its next chunk.
func (b *bench) chunkOp(sess *client.Session, in *inputs, first, n int, ckpt bool) error {
	o := b.beginOp(opChunk)
	o.first, o.steps, o.ckpt = first, in.steps[first:first+n], ckpt
	var res client.StepsResult
	d, err := b.call(o, "steps", func(ctx context.Context) error {
		var err error
		res, err = sess.SendSteps(ctx, o.steps)
		return err
	})
	if err == nil && ckpt {
		var ci client.CheckpointInfo
		var dc time.Duration
		dc, err = b.call(o, "checkpoint", func(ctx context.Context) error {
			var err error
			ci, err = sess.Checkpoint(ctx)
			return err
		})
		d += dc
		if err == nil && ci.Checkpoint != first+n {
			err = fmt.Errorf("checkpoint at %d, expected %d", ci.Checkpoint, first+n)
		}
	}
	o.remote, o.epoch = d, res.Epoch
	b.endOp(o)
	b.attempt(err)
	if err != nil {
		return fmt.Errorf("chunk at step %d: %w", first, err)
	}
	if res.Applied != n || res.Epoch != uint64(first+n) {
		return mismatchf("chunk at step %d acked %d steps at epoch %d", first, res.Applied, res.Epoch)
	}
	b.m.chunkMs = append(b.m.chunkMs, ms(d))
	b.m.ingestSteps += n
	b.m.ingestSec += d.Seconds()
	return nil
}

// pointOp sends one point batch and checks it against the mirror, which
// must be at the epoch the answer reports. Unless measure is false its
// latency is a sample.
func (b *bench) pointOp(sess *client.Session, mir *mirror, view string, qs []fvl.ItemQuery, measure bool) error {
	o := b.beginOp(opPoint)
	o.view, o.queries = view, qs
	d, err := b.call(o, "depends", func(ctx context.Context) error {
		var err error
		o.results, o.epoch, err = sess.DependsOnBatch(ctx, view, qs)
		return err
	})
	o.remote = d
	b.endOp(o)
	if err == nil {
		err = firstQueryErr(o.results)
	}
	b.attempt(err)
	if err != nil {
		return nil
	}
	sp := b.tr.begin("oracle/check", o.span, o.req)
	trues, cerr := b.checkPoint(mir, o)
	b.tr.end(sp)
	if cerr != nil {
		return cerr
	}
	b.digest.addPoints(trues)
	if measure {
		b.m.pointMs = append(b.m.pointMs, ms(d))
		b.m.pointPairs += len(qs)
		b.m.pointSec += d.Seconds()
	}
	return nil
}

func (b *bench) checkPoint(mir *mirror, o *op) (int, error) {
	if err := mir.checkEpoch("point batch", o.epoch); err != nil {
		return 0, err
	}
	return mir.checkPoints(o.view, o.queries, o.results)
}

func firstQueryErr(rs []fvl.Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// setOp sends one set query and checks it like pointOp.
func (b *bench) setOp(sess *client.Session, mir *mirror, view string, q fvl.QueryExpr, measure bool) error {
	o := b.beginOp(opSet)
	o.view, o.expr = view, q
	d, err := b.call(o, "query", func(ctx context.Context) error {
		a, epoch, err := sess.Query(ctx, view, q)
		o.epoch = epoch
		if err == nil {
			o.rows = a.Items
		}
		return err
	})
	o.remote = d
	b.endOp(o)
	b.attempt(err)
	if err != nil {
		return nil
	}
	sp := b.tr.begin("oracle/check", o.span, o.req)
	rows, cerr := b.checkSet(mir, o)
	b.tr.end(sp)
	if cerr != nil {
		return cerr
	}
	b.digest.addSet(rows)
	if measure {
		b.m.setMs = append(b.m.setMs, ms(d))
	}
	return nil
}

func (b *bench) checkSet(mir *mirror, o *op) (int, error) {
	if err := mir.checkEpoch("set query", o.epoch); err != nil {
		return 0, err
	}
	return mir.checkSet(o.view, o.expr, o.rows)
}

// liveResumes measures how a live session comes back after fvld dies: its
// journal is exported, fvld is killed and restarted over the same data
// directory (which keeps the scheme, not the session), and the journal is
// replayed into a new session. The replayed session must be at the final
// epoch and answer a point batch like the mirror. The journal's size per
// step is the state a live session needs kept to be resumable.
func (b *bench) liveResumes(p *fvld, sess *client.Session, dataDir string, in *inputs, mir *mirror, gen *queryGen, n int) error {
	var journal bytes.Buffer
	if err := sess.WriteJournal(context.Background(), &journal); err != nil {
		return fmt.Errorf("export journal: %w", err)
	}
	b.m.diskBytes += int64(journal.Len())
	b.m.diskSteps += len(in.steps)
	for k := 0; k < n; k++ {
		if err := b.killRecording(p); err != nil {
			return err
		}
		var err error
		if p, err = b.startFvld(dataDir); err != nil {
			return err
		}
		c := clientFor(p)
		o := b.beginOp(opResume)
		var res client.StepsResult
		d, err := b.call(o, "replay", func(ctx context.Context) error {
			var err error
			if sess, _, err = c.OpenSession(ctx, tenantName, schemeName, sessionName, false); err != nil {
				return err
			}
			res, err = sess.SendSteps(ctx, in.steps)
			return err
		})
		o.remote, o.epoch = d, res.Epoch
		b.endOp(o)
		b.attempt(err)
		if err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
		if res.Epoch != uint64(len(in.steps)) {
			return mismatchf("replayed session at epoch %d, expected %d", res.Epoch, len(in.steps))
		}
		b.m.resumeMs = append(b.m.resumeMs, ms(d))
		view, qs := gen.pairs(in.items, 256)
		if err := b.pointOp(sess, mir, view, qs, false); err != nil {
			return err
		}
	}
	return b.killRecording(p)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
