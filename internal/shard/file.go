package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"netclus/internal/csr"
	"netclus/internal/network"
	"netclus/internal/snapfile"
)

// A saved Set is a directory: one durable csr snapshot per shard
// (shard-000.ncs, shard-001.ncs, ...) plus plan.ncs — the partition plan
// carrying the node assignment, the global point-group tables and the
// cut-edge table in the same checksummed, page-aligned snapfile container.
// Open rebuilds every derived map from these, so a sharded dataset warm
// starts with zero reads of the original store.
const (
	planMagic   = "NCSHPLN\x01"
	planVersion = uint32(1)
	planName    = "plan.ncs"

	planSecNodeShard = 1
	planSecGroups    = 2
	planSecPtPos     = 3
	planSecPtGrp     = 4
	planSecPtTag     = 5
	planSecCutEdges  = 6
	planSecCoords    = 7

	planMetaLen  = 48
	groupRecSize = 24 // n1 u32 | n2 u32 | weight f64 | first u32 | count u32
	cutRecSize   = 24 // u u32 | v u32 | weight f64 | group u32 | pad u32
	coordRecSize = 16 // x f64 | y f64
)

// ErrSetCorrupt classes a set whose plan does not hold together, shared with
// the snapshot format's ErrCorrupt.
var ErrSetCorrupt = snapfile.ErrCorrupt

// ShardFileName returns the snapshot file name of shard s within a set dir.
func ShardFileName(s int) string { return fmt.Sprintf("shard-%03d.ncs", s) }

// Save writes the set into dir (created if missing): one snapshot file per
// shard plus the partition plan. Files are written via temp-and-rename, so
// a crash never leaves a torn file behind.
func Save(set *Set, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for s := 0; s < set.k; s++ {
		if err := csr.WriteSnapshotFile(set.shards[s], filepath.Join(dir, ShardFileName(s))); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", s, err)
		}
	}

	meta := make([]byte, planMetaLen)
	binary.LittleEndian.PutUint64(meta[0:], uint64(len(set.nodeShard)))
	binary.LittleEndian.PutUint64(meta[8:], uint64(set.numEdges))
	binary.LittleEndian.PutUint64(meta[16:], uint64(len(set.ptPos)))
	binary.LittleEndian.PutUint64(meta[24:], uint64(len(set.groups)))
	binary.LittleEndian.PutUint64(meta[32:], uint64(len(set.cutEdges)))
	binary.LittleEndian.PutUint32(meta[40:], uint32(set.k))
	var flags uint32
	if set.coords != nil {
		flags |= 1
	}
	binary.LittleEndian.PutUint32(meta[44:], flags)

	grp := make([]byte, len(set.groups)*groupRecSize)
	for i := range set.groups {
		pg := &set.groups[i]
		b := grp[i*groupRecSize:]
		binary.LittleEndian.PutUint32(b[0:], uint32(pg.N1))
		binary.LittleEndian.PutUint32(b[4:], uint32(pg.N2))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(pg.Weight))
		binary.LittleEndian.PutUint32(b[16:], uint32(pg.First))
		binary.LittleEndian.PutUint32(b[20:], uint32(pg.Count))
	}
	cut := make([]byte, len(set.cutEdges)*cutRecSize)
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		b := cut[i*cutRecSize:]
		binary.LittleEndian.PutUint32(b[0:], uint32(ce.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(ce.V))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(ce.Weight))
		binary.LittleEndian.PutUint32(b[16:], uint32(ce.Group))
	}
	sections := []snapfile.Section{
		{ID: planSecNodeShard, Data: snapfile.Int32Bytes(set.nodeShard)},
		{ID: planSecGroups, Data: grp},
		{ID: planSecPtPos, Data: snapfile.Float64Bytes(set.ptPos)},
		{ID: planSecPtGrp, Data: snapfile.Int32Bytes(set.ptGrp)},
		{ID: planSecPtTag, Data: snapfile.Int32Bytes(set.ptTag)},
		{ID: planSecCutEdges, Data: cut},
	}
	if set.coords != nil {
		crd := make([]byte, len(set.coords)*coordRecSize)
		for i, c := range set.coords {
			binary.LittleEndian.PutUint64(crd[i*coordRecSize:], math.Float64bits(c.X))
			binary.LittleEndian.PutUint64(crd[i*coordRecSize+8:], math.Float64bits(c.Y))
		}
		sections = append(sections, snapfile.Section{ID: planSecCoords, Data: crd})
	}
	return snapfile.WriteFile(filepath.Join(dir, planName), planMagic, planVersion, meta, sections)
}

// IsSetDir reports whether path is a saved sharded set (holds a plan file
// with the right magic).
func IsSetDir(path string) bool {
	f, err := os.Open(filepath.Join(path, planName))
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return string(hdr[:]) == planMagic
}

// Open loads a saved set from dir: the plan plus every shard snapshot, with
// all derived maps rebuilt and every structural invariant re-validated.
// Corrupt, truncated, wrong-version or inconsistent files fail with typed
// errors; Open never panics on untrusted input.
func Open(dir string) (*Set, error) {
	f, err := snapfile.ReadFile(filepath.Join(dir, planName), planMagic, planVersion)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: plan: %s", ErrSetCorrupt, fmt.Sprintf(format, args...))
	}
	if len(f.Meta) != planMetaLen {
		return nil, bad("meta holds %d bytes, want %d", len(f.Meta), planMetaLen)
	}
	nodes := binary.LittleEndian.Uint64(f.Meta[0:])
	edges := binary.LittleEndian.Uint64(f.Meta[8:])
	points := binary.LittleEndian.Uint64(f.Meta[16:])
	ngroups := binary.LittleEndian.Uint64(f.Meta[24:])
	ncut := binary.LittleEndian.Uint64(f.Meta[32:])
	k := binary.LittleEndian.Uint32(f.Meta[40:])
	flags := binary.LittleEndian.Uint32(f.Meta[44:])
	if nodes > math.MaxInt32 || points > math.MaxInt32 || edges > math.MaxInt32/2 ||
		ngroups > points || ncut > edges || k < 1 || k > 1<<20 {
		return nil, bad("implausible shape (%d nodes, %d edges, %d points, %d groups, %d cut, k=%d)",
			nodes, edges, points, ngroups, ncut, k)
	}

	set := &Set{k: int(k), numEdges: int(edges)}
	if set.nodeShard, err = planInt32s(f, planSecNodeShard, int(nodes)); err != nil {
		return nil, err
	}
	set.nodeLocal = make([]int32, nodes)
	set.nodeGlobal = make([][]int32, k)
	for n, s := range set.nodeShard {
		if s < 0 || int(s) >= int(k) {
			return nil, bad("node %d assigned to shard %d of %d", n, s, k)
		}
		set.nodeLocal[n] = int32(len(set.nodeGlobal[s]))
		set.nodeGlobal[s] = append(set.nodeGlobal[s], int32(n))
	}

	if set.ptPos, err = planFloat64s(f, planSecPtPos, int(points)); err != nil {
		return nil, err
	}
	if set.ptGrp, err = planInt32s(f, planSecPtGrp, int(points)); err != nil {
		return nil, err
	}
	if set.ptTag, err = planInt32s(f, planSecPtTag, int(points)); err != nil {
		return nil, err
	}

	gb, ok := f.Section(planSecGroups)
	if !ok || len(gb) != int(ngroups)*groupRecSize {
		return nil, bad("group section holds %d bytes, want %d", len(gb), int(ngroups)*groupRecSize)
	}
	set.groups = make([]network.PointGroup, ngroups)
	next := network.PointID(0)
	for i := range set.groups {
		b := gb[i*groupRecSize:]
		pg := network.PointGroup{
			N1:     network.NodeID(int32(binary.LittleEndian.Uint32(b[0:]))),
			N2:     network.NodeID(int32(binary.LittleEndian.Uint32(b[4:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			First:  network.PointID(int32(binary.LittleEndian.Uint32(b[16:]))),
			Count:  int32(binary.LittleEndian.Uint32(b[20:])),
		}
		if pg.N1 < 0 || pg.N2 <= pg.N1 || uint64(pg.N2) >= nodes ||
			!(pg.Weight > 0) || math.IsInf(pg.Weight, 1) {
			return nil, bad("group %d has bad edge (%d,%d,%g)", i, pg.N1, pg.N2, pg.Weight)
		}
		if pg.First != next || pg.Count < 1 || int(pg.First)+int(pg.Count) > int(points) {
			return nil, bad("group %d violates the point-group invariant", i)
		}
		prev := -1.0
		for j := int32(0); j < pg.Count; j++ {
			p := int32(pg.First) + j
			if set.ptGrp[p] != int32(i) {
				return nil, bad("point %d maps to group %d, want %d", p, set.ptGrp[p], i)
			}
			pos := set.ptPos[p]
			if !(pos >= prev) || pos < 0 || pos > pg.Weight {
				return nil, bad("point %d offset %g out of order or range", p, pos)
			}
			prev = pos
		}
		set.groups[i] = pg
		next += network.PointID(pg.Count)
	}
	if int(next) != int(points) {
		return nil, bad("point groups cover %d of %d points", next, points)
	}

	cb, ok := f.Section(planSecCutEdges)
	if !ok || len(cb) != int(ncut)*cutRecSize {
		return nil, bad("cut-edge section holds %d bytes, want %d", len(cb), int(ncut)*cutRecSize)
	}
	set.cutEdges = make([]CutEdge, ncut)
	for i := range set.cutEdges {
		b := cb[i*cutRecSize:]
		ce := CutEdge{
			U:      network.NodeID(int32(binary.LittleEndian.Uint32(b[0:]))),
			V:      network.NodeID(int32(binary.LittleEndian.Uint32(b[4:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			Group:  network.GroupID(int32(binary.LittleEndian.Uint32(b[16:]))),
		}
		if ce.U < 0 || ce.V <= ce.U || uint64(ce.V) >= nodes ||
			!(ce.Weight > 0) || math.IsInf(ce.Weight, 1) {
			return nil, bad("cut edge %d has bad endpoints (%d,%d,%g)", i, ce.U, ce.V, ce.Weight)
		}
		if set.nodeShard[ce.U] == set.nodeShard[ce.V] {
			return nil, bad("cut edge %d joins two nodes of shard %d", i, set.nodeShard[ce.U])
		}
		if ce.Group != network.NoGroup {
			if ce.Group < 0 || uint64(ce.Group) >= ngroups {
				return nil, bad("cut edge %d references group %d of %d", i, ce.Group, ngroups)
			}
			if pg := &set.groups[ce.Group]; pg.N1 != ce.U || pg.N2 != ce.V {
				return nil, bad("cut edge %d (%d,%d) does not carry group %d", i, ce.U, ce.V, ce.Group)
			}
		}
		set.cutEdges[i] = ce
	}

	if flags&1 != 0 {
		crd, ok := f.Section(planSecCoords)
		if !ok || len(crd) != int(nodes)*coordRecSize {
			return nil, bad("coord section holds %d bytes, want %d", len(crd), int(nodes)*coordRecSize)
		}
		set.coords = make([]network.Coord, nodes)
		for i := range set.coords {
			set.coords[i] = network.Coord{
				X: math.Float64frombits(binary.LittleEndian.Uint64(crd[i*coordRecSize:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(crd[i*coordRecSize+8:])),
			}
		}
	}

	set.buildOwnership()

	set.shards = make([]*csr.Snapshot, k)
	for s := 0; s < int(k); s++ {
		sn, err := csr.OpenSnapshot(filepath.Join(dir, ShardFileName(s)))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		st := sn.Stats()
		if st.Nodes != len(set.nodeGlobal[s]) || st.Points != len(set.pointGlobal[s]) ||
			st.Groups != len(set.groupGlobal[s]) {
			return nil, fmt.Errorf("%w: shard %d shape (%d nodes, %d points, %d groups) disagrees with the plan (%d, %d, %d)",
				ErrSetCorrupt, s, st.Nodes, st.Points, st.Groups,
				len(set.nodeGlobal[s]), len(set.pointGlobal[s]), len(set.groupGlobal[s]))
		}
		set.shards[s] = sn
	}

	if err := set.assemble(); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrSetCorrupt, err)
	}
	return set, nil
}

func planInt32s(f *snapfile.File, id uint32, count int) ([]int32, error) {
	b, ok := f.Section(id)
	if !ok {
		if count == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: plan section %d missing", ErrSetCorrupt, id)
	}
	return snapfile.Int32s(b, count)
}

func planFloat64s(f *snapfile.File, id uint32, count int) ([]float64, error) {
	b, ok := f.Section(id)
	if !ok {
		if count == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: plan section %d missing", ErrSetCorrupt, id)
	}
	return snapfile.Float64s(b, count)
}
