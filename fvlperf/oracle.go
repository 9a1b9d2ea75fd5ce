package main

import (
	"context"
	"fmt"
	"slices"

	"repro/fvl"
)

// mismatchError is a remote answer that disagrees with the mirror.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "answer mismatch: " + e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

// mirror is the answer oracle: an in-process fvl.Session over the same
// scheme and steps, advanced to the epoch a remote answer reports. Every
// check runs outside the timed region.
type mirror struct {
	in      *inputs
	sess    *fvl.Session
	applied int
}

func newMirror(in *inputs) (*mirror, error) {
	s, err := in.svc.OpenLive()
	if err != nil {
		return nil, err
	}
	return &mirror{in: in, sess: s}, nil
}

// advanceTo applies the run's steps until the mirror is at epoch.
func (m *mirror) advanceTo(epoch int) error {
	if epoch > len(m.in.steps) || epoch < m.applied {
		return mismatchf("epoch %d outside the mirror's reach (at %d of %d)", epoch, m.applied, len(m.in.steps))
	}
	for ; m.applied < epoch; m.applied++ {
		st := m.in.steps[m.applied]
		if _, err := m.sess.Apply(st.Instance, st.Production); err != nil {
			return fmt.Errorf("mirror step %d: %w", m.applied+1, err)
		}
	}
	return nil
}

func (m *mirror) items() int { return m.sess.Items() }

// checkEpoch requires a remote epoch to equal the mirror's.
func (m *mirror) checkEpoch(what string, got uint64) error {
	if got != m.sess.Epoch() {
		return mismatchf("%s at epoch %d, expected %d", what, got, m.sess.Epoch())
	}
	return nil
}

// checkPoints compares a remote point batch with the mirror's answers and
// returns the number of true answers.
func (m *mirror) checkPoints(view string, qs []fvl.ItemQuery, got []fvl.Result) (int, error) {
	want, _, err := m.sess.DependsOnBatch(context.Background(), view, qs)
	if err != nil {
		return 0, err
	}
	if len(got) != len(want) {
		return 0, mismatchf("point batch of %d answered with %d results", len(want), len(got))
	}
	trues := 0
	for i := range want {
		if want[i].Err != nil {
			return 0, fmt.Errorf("mirror point query %v: %w", qs[i], want[i].Err)
		}
		if got[i].DependsOn != want[i].DependsOn {
			return 0, mismatchf("point query %v: got %v, mirror says %v", qs[i], got[i].DependsOn, want[i].DependsOn)
		}
		if got[i].DependsOn {
			trues++
		}
	}
	return trues, nil
}

// checkSet compares a remote set answer with the mirror's and returns its
// row count.
func (m *mirror) checkSet(view string, q fvl.QueryExpr, got []int) (int, error) {
	want, _, err := m.sess.Query(context.Background(), view, q)
	if err != nil {
		return 0, fmt.Errorf("mirror set query %s: %w", q, err)
	}
	if !slices.Equal(got, want.Items) {
		return 0, mismatchf("set query %s: %d rows, mirror has %d", q, len(got), len(want.Items))
	}
	return len(got), nil
}

// digestOps is how many operations of each stream the answer digest covers:
// a fixed prefix, so the digest repeats for a seed however long the run.
const digestOps = 32

// digest sums the answers of the first digestOps point batches and set
// queries of a run.
type digest struct {
	points, sets      int
	trueAnswers, rows int
}

func (d *digest) addPoints(trues int) {
	if d.points < digestOps {
		d.points++
		d.trueAnswers += trues
	}
}

func (d *digest) addSet(rows int) {
	if d.sets < digestOps {
		d.sets++
		d.rows += rows
	}
}
