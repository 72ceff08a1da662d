// Package lbound precomputes cheap lower and upper bounds on network
// distances: landmark (ALT) distance tables combined, when the graph carries
// a validated planar embedding, with the Euclidean straight-line bound. The
// traversal operators in package network consume the bounds through the
// network.Bounder interface to filter candidates and prune frontiers without
// changing any query result.
//
// Landmark bound (triangle inequality, both sides of ALT):
//
//	|d(L,a) − d(L,b)|  <=  d(a,b)  <=  d(L,a) + d(L,b)
//
// Euclidean bound: when every edge weight is at least the straight-line
// distance of its endpoints, any network path from a to b is at least as
// long as the chord chain it follows, so ||a−b|| <= d(a,b). Build validates
// this property before trusting it.
package lbound

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"netclus/internal/network"
)

// DefaultLandmarks is the landmark count used when Options.Landmarks is 0.
const DefaultLandmarks = 8

// Errors returned by Build.
var (
	ErrEmptyNetwork = errors.New("lbound: network has no nodes")
	ErrNoCoords     = errors.New("lbound: EuclideanLB requires a planar embedding")
	ErrNotEuclidean = errors.New("lbound: edge weight below straight-line endpoint distance")
)

// Options configures Build.
type Options struct {
	// Landmarks is the number of landmarks selected by the farthest-point
	// heuristic. 0 means DefaultLandmarks; the count is clamped to the
	// number of nodes.
	Landmarks int
	// EuclideanLB enables the Euclidean lower bound and the planar
	// candidate grid behind Candidates/NearestCandidates. Build fails with
	// ErrNoCoords when the graph has no embedding and with ErrNotEuclidean
	// when any edge is shorter than its endpoints' straight-line distance.
	EuclideanLB bool
}

// BuildStats describes a finished preprocessing pass.
type BuildStats struct {
	// Landmarks is the number of landmark tables built.
	Landmarks int
	// LandmarkNodes lists the selected landmark nodes.
	LandmarkNodes []network.NodeID
	// Euclidean reports whether the Euclidean bound is active.
	Euclidean bool
	// BuildTime is the wall-clock preprocessing time.
	BuildTime time.Duration
	// TableBytes is the memory held by the landmark distance tables.
	TableBytes int
}

// coordGraph is the optional Graph extension exposing a planar embedding
// (implemented by network.Network; the disk store carries no coordinates).
type coordGraph interface {
	Coord(network.NodeID) network.Coord
	HasCoords() bool
}

// Bounds is an immutable bound provider built once per network; it is safe
// for concurrent use by any number of query goroutines.
type Bounds struct {
	numNodes  int
	landmarks []network.NodeID
	tables    [][]float64 // tables[i][v] = d(landmarks[i], v)
	ptTables  [][]float64 // ptTables[i][p] = d(landmarks[i], point p), exact
	pGrp      []network.GroupID
	pPos      []float64
	gN1, gN2  []network.NodeID  // per-group edge endpoints
	gW        []float64         // per-group edge weight
	gFirst    []network.PointID // per-group first point
	euclid    bool
	nx, ny    []float64 // node embedding (euclid only)
	grid      *pointGrid
	buildTime time.Duration
}

var _ network.Bounder = (*Bounds)(nil)

// Build precomputes bounds for g.
func Build(g network.Graph, opts Options) (*Bounds, error) {
	return BuildCtx(context.Background(), g, opts)
}

// BuildCtx is Build with cancellation: every traversal checks ctx as the
// query operators do, and so do the passes between them, so a cancelled
// build stops within a few hundred graph reads with an error wrapping
// ctx.Err().
func BuildCtx(ctx context.Context, g network.Graph, opts Options) (*Bounds, error) {
	start := time.Now()
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyNetwork
	}
	if err := buildCancelled(ctx); err != nil {
		return nil, err
	}
	b := &Bounds{numNodes: n}

	if opts.EuclideanLB {
		cg, ok := g.(coordGraph)
		if !ok || !cg.HasCoords() {
			return nil, ErrNoCoords
		}
		b.nx = make([]float64, n)
		b.ny = make([]float64, n)
		for v := 0; v < n; v++ {
			c := cg.Coord(network.NodeID(v))
			b.nx[v], b.ny[v] = c.X, c.Y
		}
		if err := validateEuclidean(ctx, g, b.nx, b.ny); err != nil {
			return nil, err
		}
		grid, err := buildPointGrid(g, b.nx, b.ny)
		if err != nil {
			return nil, err
		}
		b.euclid = true
		b.grid = grid
	}

	k := opts.Landmarks
	if k <= 0 {
		k = DefaultLandmarks
	}
	if err := b.buildFarthest(ctx, g, min(k, n)); err != nil {
		return nil, err
	}
	if err := b.buildPointTables(ctx, g); err != nil {
		return nil, err
	}
	b.buildTime = time.Since(start)
	return b, nil
}

// buildPointTables derives exact landmark-to-point distances from the node
// tables (best entry through either endpoint) plus each point's edge group
// and offset, and mirrors every group's (N1, N2, Weight) so candidate
// PointInfos can be assembled without touching the graph — over a disk-backed
// store, a per-candidate PointInfo call is exactly the record read the filter
// exists to avoid. The flat per-point tables are what makes the candidate
// filter O(landmarks) per candidate with no graph lookups on the hot path.
func (b *Bounds) buildPointTables(ctx context.Context, g network.Graph) error {
	np := g.NumPoints()
	b.pGrp = make([]network.GroupID, np)
	b.pPos = make([]float64, np)
	ng := g.NumGroups()
	b.gN1 = make([]network.NodeID, ng)
	b.gN2 = make([]network.NodeID, ng)
	b.gW = make([]float64, ng)
	b.gFirst = make([]network.PointID, ng)
	b.ptTables = make([][]float64, len(b.tables))
	for li := range b.ptTables {
		b.ptTables[li] = make([]float64, np)
	}
	return g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, off []float64) error {
		if gid&cancelMask == 0 {
			if err := buildCancelled(ctx); err != nil {
				return err
			}
		}
		b.gN1[gid] = pg.N1
		b.gN2[gid] = pg.N2
		b.gW[gid] = pg.Weight
		b.gFirst[gid] = pg.First
		for i, o := range off {
			pid := pg.First + network.PointID(i)
			b.pGrp[pid] = gid
			b.pPos[pid] = o
			for li, tab := range b.tables {
				d := tab[pg.N1] + o
				if d2 := tab[pg.N2] + (pg.Weight - o); d2 < d {
					d = d2
				}
				b.ptTables[li][pid] = d
			}
		}
		return nil
	})
}

// PointInfoAt returns p's PointInfo assembled from the flat tables,
// satisfying network.PointInfoSource: pruned traversals resolve the query
// point's own location without a graph record read. Tag is not stored and
// stays zero; the traversal operators never read it. ok is false for IDs
// outside the table range.
func (b *Bounds) PointInfoAt(p network.PointID) (network.PointInfo, bool) {
	if p < 0 || int(p) >= len(b.pPos) {
		return network.PointInfo{}, false
	}
	return b.pointInfoOf(p), true
}

// pointInfoOf assembles a candidate's PointInfo from the flat tables. The Tag
// field is not stored and stays zero; the traversal operators never read it.
func (b *Bounds) pointInfoOf(q network.PointID) network.PointInfo {
	gid := b.pGrp[q]
	return network.PointInfo{
		Group:  gid,
		N1:     b.gN1[gid],
		N2:     b.gN2[gid],
		Pos:    b.pPos[q],
		Weight: b.gW[gid],
	}
}

// cancelMask spaces the cancellation checks of the build's linear passes:
// one per 256 nodes or groups, the traversal operators' rate.
const cancelMask = 255

// buildCancelled reports ctx's error, wrapped, once ctx is done.
func buildCancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("lbound: build cancelled: %w", err)
	}
	return nil
}

// validateEuclidean checks that every edge weight is at least the
// straight-line distance of its endpoints.
func validateEuclidean(ctx context.Context, g network.Graph, nx, ny []float64) error {
	for u := 0; u < g.NumNodes(); u++ {
		if u&cancelMask == 0 {
			if err := buildCancelled(ctx); err != nil {
				return err
			}
		}
		adj, err := g.Neighbors(network.NodeID(u))
		if err != nil {
			return err
		}
		for _, nb := range adj {
			if nb.Node < network.NodeID(u) {
				continue // undirected: check each edge once
			}
			d := math.Hypot(nx[nb.Node]-nx[u], ny[nb.Node]-ny[u])
			if nb.Weight < d {
				return fmt.Errorf("%w: edge (%d,%d) weight %v < %v",
					ErrNotEuclidean, u, nb.Node, nb.Weight, d)
			}
		}
	}
	return nil
}

// buildFarthest selects k landmarks with the farthest-point heuristic. Every
// selection Dijkstra doubles as the selected landmark's distance table, so
// the pass costs exactly k+1 single-source traversals.
func (b *Bounds) buildFarthest(ctx context.Context, g network.Graph, k int) error {
	// Bootstrap: the first landmark is the node farthest from node 0
	// (unreachable nodes count as infinitely far, so disconnected
	// components get a landmark before anything else).
	d0, err := network.NodeDistancesCtx(ctx, g, 0)
	if err != nil {
		return err
	}
	next := argmaxDist(d0)
	minD := make([]float64, b.numNodes)
	for i := range minD {
		minD[i] = network.Inf
	}
	for len(b.tables) < k {
		tab, err := network.NodeDistancesCtx(ctx, g, next)
		if err != nil {
			return err
		}
		b.landmarks = append(b.landmarks, next)
		b.tables = append(b.tables, tab)
		far := network.NodeID(-1)
		farD := 0.0
		for v, d := range tab {
			if d < minD[v] {
				minD[v] = d
			}
			if minD[v] > farD || (far < 0 && minD[v] == farD) {
				farD = minD[v]
				far = network.NodeID(v)
			}
		}
		if farD == 0 {
			break // every node is (at distance 0 from) a landmark already
		}
		next = far
	}
	return nil
}

// argmaxDist returns the index of the largest distance, treating +Inf as
// larger than anything and breaking ties toward the lowest ID.
func argmaxDist(d []float64) network.NodeID {
	best := network.NodeID(0)
	for v := 1; v < len(d); v++ {
		if d[v] > d[best] {
			best = network.NodeID(v)
		}
	}
	return best
}

// Stats reports what Build produced.
func (b *Bounds) Stats() BuildStats {
	return BuildStats{
		Landmarks:     len(b.landmarks),
		LandmarkNodes: append([]network.NodeID(nil), b.landmarks...),
		Euclidean:     b.euclid,
		BuildTime:     b.buildTime,
		TableBytes:    len(b.tables) * (b.numNodes + len(b.pPos)) * 8,
	}
}

// Euclidean reports whether the Euclidean bound (and with it the planar
// candidate grid) is active.
func (b *Bounds) Euclidean() bool { return b.euclid }

// NodeLower returns a lower bound on d(a, c).
func (b *Bounds) NodeLower(a, c network.NodeID) float64 {
	if a == c {
		return 0
	}
	lb := 0.0
	if b.euclid {
		lb = math.Hypot(b.nx[a]-b.nx[c], b.ny[a]-b.ny[c])
	}
	for _, t := range b.tables {
		da, dc := t[a], t[c]
		ia, ic := math.IsInf(da, 1), math.IsInf(dc, 1)
		if ia != ic {
			return network.Inf // the landmark reaches one side only
		}
		if ia {
			continue // the landmark sees neither node
		}
		if d := math.Abs(da - dc); d > lb {
			lb = d
		}
	}
	return lb
}

// NodeUpper returns an upper bound on d(a, c).
func (b *Bounds) NodeUpper(a, c network.NodeID) float64 {
	if a == c {
		return 0
	}
	ub := network.Inf
	for _, t := range b.tables {
		if v := t[a] + t[c]; v < ub {
			ub = v
		}
	}
	return ub
}

// landmarkDist returns the exact distance from landmark li to point p:
// the best entry through either endpoint of p's edge.
func (b *Bounds) landmarkDist(li int, p network.PointInfo) float64 {
	tab := b.tables[li]
	d := tab[p.N1] + p.Pos
	if d2 := tab[p.N2] + (p.Weight - p.Pos); d2 < d {
		d = d2
	}
	return d
}

// PointLower returns a lower bound on the point-to-point distance d(p, q):
// the largest of the Euclidean chord and the per-landmark triangle bounds
// |d(L,p) − d(L,q)|, both valid because landmark-to-point distances are
// exact.
func (b *Bounds) PointLower(p, q network.PointInfo) float64 {
	direct := network.DirectPointDist(p, q)
	if direct == 0 {
		return 0
	}
	lb := 0.0
	if b.euclid {
		px, py := b.pointXY(p)
		qx, qy := b.pointXY(q)
		lb = math.Hypot(px-qx, py-qy)
	}
	for li := range b.tables {
		dp, dq := b.landmarkDist(li, p), b.landmarkDist(li, q)
		ip, iq := math.IsInf(dp, 1), math.IsInf(dq, 1)
		if ip || iq {
			if ip != iq {
				return network.Inf // the landmark reaches one point only
			}
			continue
		}
		if d := math.Abs(dp - dq); d > lb {
			lb = d
		}
	}
	return lb
}

// PointUpper returns an upper bound on the point-to-point distance d(p, q):
// the direct same-edge route when it exists, else the best landmark detour
// d(L,p) + d(L,q).
func (b *Bounds) PointUpper(p, q network.PointInfo) float64 {
	direct := network.DirectPointDist(p, q)
	if direct == 0 {
		return 0
	}
	ub := direct
	for li := range b.tables {
		if v := b.landmarkDist(li, p) + b.landmarkDist(li, q); v < ub {
			ub = v
		}
	}
	return ub
}

// pointXY interpolates the planar position of a point along its edge chord.
// The chord-prefix is never longer than the along-edge distance, so bounds
// derived from these positions stay admissible.
func (b *Bounds) pointXY(p network.PointInfo) (float64, float64) {
	t := 0.0
	if p.Weight > 0 {
		t = p.Pos / p.Weight
	}
	x1, y1 := b.nx[p.N1], b.ny[p.N1]
	return x1 + (b.nx[p.N2]-x1)*t, y1 + (b.ny[p.N2]-y1)*t
}

// queryEntry hoists the per-landmark distances of the query point so the
// per-candidate bound computation is a flat-array loop.
func (b *Bounds) queryEntry(p network.PointInfo) []float64 {
	pe := make([]float64, len(b.tables))
	for li := range b.tables {
		pe[li] = b.landmarkDist(li, p)
	}
	return pe
}

// candBounds computes (lower, upper) bounds on d(p, q) for candidate q using
// the hoisted query-side landmark distances pe, the candidate's precomputed
// landmark distances, the Euclidean floor de, and the direct same-edge route.
func (b *Bounds) candBounds(pe []float64, p network.PointInfo, q network.PointID, de float64) (float64, float64) {
	lo, hi := de, network.Inf
	if b.pGrp[q] == p.Group {
		hi = math.Abs(b.pPos[q] - p.Pos)
	}
	for li, dp := range pe {
		dq := b.ptTables[li][q]
		ip, iq := math.IsInf(dp, 1), math.IsInf(dq, 1)
		if ip || iq {
			if ip != iq {
				return network.Inf, hi // the landmark reaches one point only
			}
			continue
		}
		if s := dp + dq; s < hi {
			hi = s
		}
		if d := dp - dq; d > lo {
			lo = d
		} else if -d > lo {
			lo = -d
		}
	}
	return lo, hi
}

// Candidates yields every point within Euclidean distance r of p — a
// superset of the network r-neighbourhood — along with its location and
// (lower, upper) bounds on its network distance from p. It returns false
// (yielding nothing) when the Euclidean bound is inactive.
func (b *Bounds) Candidates(p network.PointInfo, r float64, yield func(q network.PointID, qi network.PointInfo, lower, upper float64) bool) bool {
	if !b.euclid || b.grid == nil {
		return false
	}
	x, y := b.pointXY(p)
	pe := b.queryEntry(p)
	// p's own group first, by its exact along-edge distance as well as the
	// Euclidean one: rounding can put the Hypot of two interpolated positions
	// an ulp above their offsets' difference, and the grid alone would then
	// drop a same-edge point at exactly r that the plain expansion keeps. The
	// Euclidean bound is capped by that distance, which it never exceeds.
	for q := b.gFirst[p.Group]; int(q) < len(b.pGrp) && b.pGrp[q] == p.Group; q++ {
		direct := math.Abs(b.pPos[q] - p.Pos)
		de := math.Hypot(b.grid.px[q]-x, b.grid.py[q]-y)
		if de > r && direct > r {
			continue
		}
		lo, hi := b.candBounds(pe, p, q, min(de, direct))
		if !yield(q, b.pointInfoOf(q), lo, hi) {
			return true
		}
	}
	b.grid.within(x, y, r, func(q network.PointID, de float64) bool {
		if b.pGrp[q] == p.Group {
			return true // yielded above
		}
		lo, hi := b.candBounds(pe, p, q, de)
		return yield(q, b.pointInfoOf(q), lo, hi)
	})
	return true
}

// NearestCandidates yields all points in ascending Euclidean distance from
// p, each with its location and its Euclidean distance (the stream's sort
// key, a lower bound on its network distance). It returns false (yielding
// nothing) when the Euclidean bound is inactive.
func (b *Bounds) NearestCandidates(p network.PointInfo, yield func(q network.PointID, qi network.PointInfo, euclid float64) bool) bool {
	if !b.euclid || b.grid == nil {
		return false
	}
	x, y := b.pointXY(p)
	b.grid.nearest(x, y, func(q network.PointID, de float64) bool {
		return yield(q, b.pointInfoOf(q), de)
	})
	return true
}

// TargetBounds precomputes per-landmark extremes over the target set so that
// Lower/Upper cost O(landmarks) per node.
func (b *Bounds) TargetBounds(targets []network.PointInfo) network.TargetBounder {
	tb := &targetBounds{b: b, nTargets: len(targets)}
	L := len(b.tables)
	tb.lo = make([]float64, L)
	tb.hi = make([]float64, L)
	tb.nFin = make([]int, L)
	for li, tab := range b.tables {
		lo, hi := network.Inf, 0.0
		nf := 0
		for _, tg := range targets {
			// d(landmark, tg) exactly: best entry through either endpoint.
			d := math.Min(tab[tg.N1]+tg.Pos, tab[tg.N2]+tg.Weight-tg.Pos)
			if math.IsInf(d, 1) {
				continue
			}
			nf++
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		tb.lo[li], tb.hi[li], tb.nFin[li] = lo, hi, nf
	}
	if b.euclid && len(targets) > 0 {
		tb.bbox = true
		tb.minX, tb.minY = network.Inf, network.Inf
		tb.maxX, tb.maxY = math.Inf(-1), math.Inf(-1)
		for _, tg := range targets {
			x, y := b.pointXY(tg)
			tb.minX = math.Min(tb.minX, x)
			tb.maxX = math.Max(tb.maxX, x)
			tb.minY = math.Min(tb.minY, y)
			tb.maxY = math.Max(tb.maxY, y)
		}
	}
	return tb
}

// targetBounds bounds distances from nodes to the nearest of a fixed target
// point set.
type targetBounds struct {
	b                      *Bounds
	nTargets               int
	lo, hi                 []float64 // per-landmark min/max over finite target distances
	nFin                   []int     // per-landmark count of targets the landmark reaches
	bbox                   bool
	minX, maxX, minY, maxY float64
}

// Lower returns a lower bound on the distance from v to its nearest target.
func (t *targetBounds) Lower(v network.NodeID) float64 {
	if t.nTargets == 0 {
		return network.Inf
	}
	lb := 0.0
	if t.bbox {
		dx := math.Max(math.Max(t.minX-t.b.nx[v], t.b.nx[v]-t.maxX), 0)
		dy := math.Max(math.Max(t.minY-t.b.ny[v], t.b.ny[v]-t.maxY), 0)
		lb = math.Hypot(dx, dy)
	}
	for li := range t.lo {
		dv := t.b.tables[li][v]
		if math.IsInf(dv, 1) {
			// v is outside the landmark's component; targets the landmark
			// reaches are therefore unreachable from v.
			if t.nFin[li] == t.nTargets {
				return network.Inf
			}
			continue
		}
		if t.nFin[li] == 0 {
			// v shares the landmark's component, no target does.
			return network.Inf
		}
		if d := dv - t.hi[li]; d > lb {
			lb = d
		}
		if d := t.lo[li] - dv; d > lb {
			lb = d
		}
	}
	return lb
}

// Upper returns an upper bound on the distance from v to its nearest target.
func (t *targetBounds) Upper(v network.NodeID) float64 {
	ub := network.Inf
	for li := range t.lo {
		dv := t.b.tables[li][v]
		if math.IsInf(dv, 1) || t.nFin[li] == 0 {
			continue
		}
		if u := dv + t.lo[li]; u < ub {
			ub = u
		}
	}
	return ub
}
