package core

import (
	"context"

	"netclus/internal/network"
)

// The swap search of one k-medoids restart, opened to the external tests so
// they can drive single attempts and look at everything one may touch.

func NewMedoidSearch(ctx context.Context, g network.Graph, opts KMedoidsOptions, init []network.PointID) (*medoidSearch, error) {
	return newMedoidSearch(ctx, g, opts, init, new(Stats))
}

func (s *medoidSearch) Attempt(ctx context.Context, mi int, cand network.PointID) (bool, error) {
	return s.attempt(ctx, mi, cand)
}

// State returns the live arrays of the search: node assignment, point labels,
// per-group subtotals (nil off the delta-assignment path) and R.
func (s *medoidSearch) State() (st *MedoidState, labels []int32, sub []float64, r float64) {
	return s.st, s.labels, s.sub, s.r
}

func (s *medoidSearch) Medoids() ([]network.PointID, []network.PointInfo) { return s.ids, s.infos }

func (s *medoidSearch) Stats() Stats { return *s.stats }

// Changes returns the overwrites recorded since the last Begin, oldest first.
func (s *MedoidState) Changes() network.MedoidLog { return s.log }
