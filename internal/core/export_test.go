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

// Pair is one Single-Link merge candidate: the clusters of points A and B,
// joined at distance Dist.
type Pair struct {
	A, B network.PointID
	Dist float64
}

// SortPairs returns ps in Single-Link's merge order, as its sort leaves the
// candidates; ps is not modified.
func SortPairs(ps []Pair) []Pair {
	cands := make([]pairEntry, len(ps))
	for i, p := range ps {
		cands[i] = pairEntry{a: p.A, b: p.B, dist: p.Dist}
	}
	sorted, _ := sortPairs(cands, nil)
	out := make([]Pair, len(ps))
	for i, c := range sorted {
		out[i] = Pair{A: c.a, B: c.b, Dist: c.dist}
	}
	return out
}
