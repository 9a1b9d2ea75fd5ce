package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/fvl"
)

// numViews is how many random views every scheme serves. Operations cycle
// through them, so a run's figures average over views rather than hang on
// how costly one random view happens to be.
const numViews = 8

// inputs is everything a workload derives from its seed before it starts
// fvld: the BioAID run, grey-box random views of 8 composites, the labeled
// scheme (as the snapshot fvld is given and as the service the mirror
// uses), and per view the IDs of the items it shows, from which every query
// target is drawn.
type inputs struct {
	spec     *fvl.Spec
	svc      *fvl.Service
	snapshot []byte
	steps    []fvl.StepRequest
	views    []string
	visible  map[string][]int // ascending
	items    int
}

// makeInputs derives the run and the view from the seed and labels the
// view under the variant.
func makeInputs(seed int64, items int, variant fvl.Variant) (*inputs, error) {
	spec := fvl.BioAID()
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: items, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, steps: r.StepLog(), items: r.Size(), visible: map[string][]int{}}
	var views []*fvl.View
	for k := 0; k < numViews; k++ {
		name := fmt.Sprintf("v%d", k)
		view, err := fvl.RandomView(spec, fvl.ViewOptions{Name: name, Composites: 8, Mode: fvl.GreyBox, Seed: seed*numViews + int64(k) + 1})
		if err != nil {
			return nil, err
		}
		proj, err := r.Project(view)
		if err != nil {
			return nil, err
		}
		visible := proj.VisibleItems()
		sort.Ints(visible)
		if len(visible) < 2 {
			return nil, fmt.Errorf("view %s shows %d items", name, len(visible))
		}
		views = append(views, view)
		in.views = append(in.views, name)
		in.visible[name] = visible
	}
	svc, err := fvl.Open(context.Background(), spec, views, fvl.WithVariant(variant))
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := svc.Snapshot(&snap); err != nil {
		return nil, err
	}
	in.svc, in.snapshot = svc, snap.Bytes()
	return in, nil
}

// queryGen draws query inputs from the visible items produced so far; one
// generator per stream, seeded from the run seed, so a seed fixes every
// stream. Successive draws cycle through the views.
type queryGen struct {
	in  *inputs
	rng *rand.Rand
	n   int // draws so far
}

func (in *inputs) queryGen(seed int64, stream int64) *queryGen {
	return &queryGen{in: in, rng: rand.New(rand.NewSource(seed*1_000_003 + stream))}
}

// next picks the view of the next draw and its items with ID at most
// items.
func (g *queryGen) next(items int) (string, []int) {
	view := g.in.views[g.n%len(g.in.views)]
	g.n++
	vis := g.in.visible[view]
	return view, vis[:sort.SearchInts(vis, items+1)]
}

// pairs draws n point queries among the items produced so far that the
// next view shows.
func (g *queryGen) pairs(items, n int) (string, []fvl.ItemQuery) {
	view, vis := g.next(items)
	qs := make([]fvl.ItemQuery, n)
	for i := range qs {
		qs[i] = fvl.ItemQuery{From: vis[g.rng.Intn(len(vis))], To: vis[g.rng.Intn(len(vis))]}
	}
	return view, qs
}

// setQuery draws the next set query, deps or revdeps of an item produced
// so far that the next view shows; the two alternate on each view.
func (g *queryGen) setQuery(items int) (string, fvl.QueryExpr) {
	round := g.n / len(g.in.views)
	view, vis := g.next(items)
	item := vis[g.rng.Intn(len(vis))]
	if round%2 == 0 {
		return view, fvl.DepsOf(item)
	}
	return view, fvl.RevDepsOf(item)
}
