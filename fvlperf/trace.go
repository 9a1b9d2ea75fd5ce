package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/fvl"
)

// span is one traced interval: a client call, an operation, or a ladder
// rung. Spans of one operation share its request ID; parent is the index
// of the enclosing span, -1 for none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// When off, begin and end do nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  atomic.Uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span of known duration ending now (ladder rungs,
// whose timing excludes their bookkeeping).
func (t *tracer) record(name string, parent int32, req uint64, d time.Duration) {
	if !t.on {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: end - d.Nanoseconds(), End: end, Parent: parent, Req: req})
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// writeTrace writes the spans as JSON lines under the build directory.
func (b *bench) writeTrace() error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	return fvl.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range b.tr.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

type opKind int

const (
	opChunk opKind = iota
	opPoint
	opSet
	opResume
)

func (k opKind) String() string {
	return [...]string{"chunk", "point", "set", "resume"}[k]
}

// op is one end-to-end operation. In a traced pass it is kept, with its
// inputs and remote latency, for the ladder to replay.
type op struct {
	kind opKind
	req  uint64
	span int32

	first  int // chunk: index of its first step
	steps  []fvl.StepRequest
	ckpt   bool // chunk: followed by a checkpoint
	epoch  uint64
	remote time.Duration

	view    string // point and set: the view queried
	queries []fvl.ItemQuery
	results []fvl.Result
	expr    fvl.QueryExpr
	rows    []int

	wire wireBytes
}

// beginOp opens an operation and its span.
func (b *bench) beginOp(kind opKind) *op {
	o := &op{kind: kind, req: b.tr.reqs.Add(1)}
	o.span = b.tr.begin("op/"+kind.String(), -1, o.req)
	return o
}

// endOp closes the operation's span and keeps it for the ladder when the
// pass is traced.
func (b *bench) endOp(o *op) {
	b.tr.end(o.span)
	if b.tr.on {
		b.tr.mu.Lock()
		b.ops = append(b.ops, o)
		b.tr.mu.Unlock()
	}
}

// call times one client call as a child span of the operation, charging its
// wire bytes to the operation.
func (b *bench) call(o *op, name string, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx := withWireBytes(context.Background(), &o.wire)
	sp := b.tr.begin("client/"+name, o.span, o.req)
	t := time.Now()
	err := fn(ctx)
	d := time.Since(t)
	b.tr.end(sp)
	return d, err
}
