package csr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"netclus/internal/network"
	"netclus/internal/snapfile"
)

// The durable snapshot format: a snapfile container of little-endian
// sections. Row offsets and point arrays are zero-copy views of the file
// bytes at load; the adjacency columns (sections 2–4) are decoded into the
// one []network.Neighbor array, and groups and coords are packed fixed-width
// records, so the format does not depend on Go struct layout.
const (
	snapMagic   = "NCSRSNP\x01"
	snapVersion = uint32(1)

	secRowOff   = 1
	secAdjNode  = 2
	secAdjW     = 3
	secAdjGroup = 4
	secGroups   = 5 // packed 24 B records: n1 i32, n2 i32, weight f64, first i32, count i32
	secPtPos    = 6
	secPtGrp    = 7
	secPtTag    = 8
	secCoords   = 9 // packed 16 B records: x f64, y f64

	snapMetaLen    = 48
	snapFlagCoords = uint64(1)
)

// Snapshot file errors, aliased so callers can errors.Is against the csr
// package without importing snapfile.
var (
	ErrSnapshotMagic    = snapfile.ErrMagic
	ErrSnapshotVersion  = snapfile.ErrVersion
	ErrSnapshotChecksum = snapfile.ErrChecksum
	ErrSnapshotCorrupt  = snapfile.ErrCorrupt
)

// WriteTo serializes the snapshot into the durable page-aligned section
// format, returning the bytes written. The result round-trips through
// OpenSnapshot to a snapshot that serves byte-identical results.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	meta := make([]byte, snapMetaLen)
	binary.LittleEndian.PutUint64(meta[0:], uint64(s.stats.Nodes))
	binary.LittleEndian.PutUint64(meta[8:], uint64(s.NumEdges()))
	binary.LittleEndian.PutUint64(meta[16:], uint64(s.stats.Points))
	binary.LittleEndian.PutUint64(meta[24:], uint64(len(s.groups)))
	var flags uint64
	if s.coords != nil {
		flags |= snapFlagCoords
	}
	binary.LittleEndian.PutUint64(meta[32:], flags)
	binary.LittleEndian.PutUint64(meta[40:], math.Float64bits(s.invDelta))

	groups := make([]byte, len(s.groups)*24)
	for i := range s.groups {
		pg := &s.groups[i]
		e := groups[i*24:]
		binary.LittleEndian.PutUint32(e[0:], uint32(pg.N1))
		binary.LittleEndian.PutUint32(e[4:], uint32(pg.N2))
		binary.LittleEndian.PutUint64(e[8:], math.Float64bits(pg.Weight))
		binary.LittleEndian.PutUint32(e[16:], uint32(pg.First))
		binary.LittleEndian.PutUint32(e[20:], uint32(pg.Count))
	}
	adjNode, adjW, adjGroup := make([]byte, len(s.adj)*4), make([]byte, len(s.adj)*8), make([]byte, len(s.adj)*4)
	for i, nb := range s.adj {
		binary.LittleEndian.PutUint32(adjNode[i*4:], uint32(nb.Node))
		binary.LittleEndian.PutUint64(adjW[i*8:], math.Float64bits(nb.Weight))
		binary.LittleEndian.PutUint32(adjGroup[i*4:], uint32(nb.Group))
	}
	sections := []snapfile.Section{
		{ID: secRowOff, Data: snapfile.Int32Bytes(s.rowOff)},
		{ID: secAdjNode, Data: adjNode},
		{ID: secAdjW, Data: adjW},
		{ID: secAdjGroup, Data: adjGroup},
		{ID: secGroups, Data: groups},
		{ID: secPtPos, Data: snapfile.Float64Bytes(s.ptPos)},
		{ID: secPtGrp, Data: snapfile.Int32Bytes(s.ptGrp)},
		{ID: secPtTag, Data: snapfile.Int32Bytes(s.ptTag)},
	}
	if s.coords != nil {
		coords := make([]byte, len(s.coords)*16)
		for i, c := range s.coords {
			binary.LittleEndian.PutUint64(coords[i*16:], math.Float64bits(c.X))
			binary.LittleEndian.PutUint64(coords[i*16+8:], math.Float64bits(c.Y))
		}
		sections = append(sections, snapfile.Section{ID: secCoords, Data: coords})
	}
	return snapfile.Write(w, snapMagic, snapVersion, meta, sections)
}

// WriteSnapshotFile writes the snapshot to path (write + rename).
func WriteSnapshotFile(s *Snapshot, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// OpenSnapshot loads a snapshot file written by WriteTo. All checksums are
// verified and the structure validated before any array is trusted; the row
// offsets and point arrays are zero-copy views of the file bytes and the
// adjacency is one decode pass, so a load performs no store reads and no
// recompilation — a warm start. Failure modes are the typed ErrSnapshot*
// errors (wrapped), never a panic.
func OpenSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// IsSnapshotFile reports whether path begins with the snapshot magic.
func IsSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false
	}
	return string(hdr[:]) == snapMagic
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	start := time.Now()
	f, err := snapfile.Read(data, snapMagic, snapVersion)
	if err != nil {
		return nil, err
	}
	if len(f.Meta) != snapMetaLen {
		return nil, fmt.Errorf("%w: meta block holds %d bytes, want %d", ErrSnapshotCorrupt, len(f.Meta), snapMetaLen)
	}
	nodes := binary.LittleEndian.Uint64(f.Meta[0:])
	edges := binary.LittleEndian.Uint64(f.Meta[8:])
	points := binary.LittleEndian.Uint64(f.Meta[16:])
	groups := binary.LittleEndian.Uint64(f.Meta[24:])
	flags := binary.LittleEndian.Uint64(f.Meta[32:])
	// Bytes 40–47 carry the writer's 1/Δ. The format keeps the word, but no
	// bucket index is ever computed from it: the widths are derived from the
	// loaded weights below, as Compile derives them.
	invDelta := math.Float64frombits(binary.LittleEndian.Uint64(f.Meta[40:]))
	if nodes > math.MaxInt32 || points > math.MaxInt32 || groups > points || edges > math.MaxInt32/2 {
		return nil, fmt.Errorf("%w: implausible cardinalities (%d nodes, %d edges, %d points, %d groups)",
			ErrSnapshotCorrupt, nodes, edges, points, groups)
	}
	if math.IsNaN(invDelta) || math.IsInf(invDelta, 0) || invDelta < 0 {
		return nil, fmt.Errorf("%w: invalid bucket width 1/Δ = %v", ErrSnapshotCorrupt, invDelta)
	}

	half := int(2 * edges)
	rowOff, err := snapInt32s(f, secRowOff, int(nodes)+1)
	if err != nil {
		return nil, err
	}
	adjNode, errN := snapInt32s(f, secAdjNode, half)
	adjW, errW := snapFloat64s(f, secAdjW, half)
	adjGroup, errG := snapInt32s(f, secAdjGroup, half)
	if err := cmp.Or(errN, errW, errG); err != nil {
		return nil, err
	}
	adj := make([]network.Neighbor, half)
	for i := range adj {
		adj[i] = network.Neighbor{Node: network.NodeID(adjNode[i]), Group: network.GroupID(adjGroup[i]), Weight: adjW[i]}
	}
	ptPos, errPos := snapFloat64s(f, secPtPos, int(points))
	ptGrp, errGrp := snapInt32s(f, secPtGrp, int(points))
	ptTag, errTag := snapInt32s(f, secPtTag, int(points))
	if err := cmp.Or(errPos, errGrp, errTag); err != nil {
		return nil, err
	}
	gsec, ok := f.Section(secGroups)
	if !ok || len(gsec) != int(groups)*24 {
		return nil, fmt.Errorf("%w: group section holds %d bytes, want %d records", ErrSnapshotCorrupt, len(gsec), groups)
	}
	pgs := make([]network.PointGroup, groups)
	for i := range pgs {
		e := gsec[i*24:]
		pgs[i] = network.PointGroup{
			N1:     network.NodeID(int32(binary.LittleEndian.Uint32(e[0:]))),
			N2:     network.NodeID(int32(binary.LittleEndian.Uint32(e[4:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
			First:  network.PointID(int32(binary.LittleEndian.Uint32(e[16:]))),
			Count:  int32(binary.LittleEndian.Uint32(e[20:])),
		}
	}
	var coords []network.Coord
	if flags&snapFlagCoords != 0 {
		csec, ok := f.Section(secCoords)
		if !ok || len(csec) != int(nodes)*16 {
			return nil, fmt.Errorf("%w: coord section holds %d bytes, want %d records", ErrSnapshotCorrupt, len(csec), nodes)
		}
		coords = make([]network.Coord, nodes)
		for i := range coords {
			coords[i] = network.Coord{
				X: math.Float64frombits(binary.LittleEndian.Uint64(csec[i*16:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(csec[i*16+8:])),
			}
		}
	}

	s := newSnapshot(network.FromColumns(rowOff, adj, pgs, ptPos, ptGrp, ptTag, coords), new(kernelPools))
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Derived state: the bucket width unit.
	s.invDelta = invMeanWeight(s.adj)
	s.stats.CompileTime = time.Since(start) // load time: no store reads, no recompilation
	return s, nil
}

func snapInt32s(f *snapfile.File, id uint32, count int) ([]int32, error) {
	b, ok := f.Section(id)
	if !ok {
		return nil, fmt.Errorf("%w: section %d missing", ErrSnapshotCorrupt, id)
	}
	v, err := snapfile.Int32s(b, count)
	if err != nil {
		return nil, fmt.Errorf("section %d: %w", id, err)
	}
	return v, nil
}

func snapFloat64s(f *snapfile.File, id uint32, count int) ([]float64, error) {
	b, ok := f.Section(id)
	if !ok {
		return nil, fmt.Errorf("%w: section %d missing", ErrSnapshotCorrupt, id)
	}
	v, err := snapfile.Float64s(b, count)
	if err != nil {
		return nil, fmt.Errorf("section %d: %w", id, err)
	}
	return v, nil
}

// validate rejects files whose checksums pass but whose logical structure
// is impossible — a misbuilt or maliciously crafted snapshot must fail
// typed, not index out of bounds at query time.
func (s *Snapshot) validate() error {
	nodes := int32(len(s.rowOff) - 1)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	if len(s.rowOff) == 0 || s.rowOff[0] != 0 {
		return bad("row offsets must start at 0")
	}
	for n := 0; n < int(nodes); n++ {
		if s.rowOff[n+1] < s.rowOff[n] {
			return bad("row offsets decrease at node %d", n)
		}
	}
	if int(s.rowOff[nodes]) != len(s.adj) {
		return bad("row offsets end at %d, adjacency holds %d entries", s.rowOff[nodes], len(s.adj))
	}
	for i, nb := range s.adj {
		if nb.Node < 0 || int32(nb.Node) >= nodes {
			return bad("adjacency entry %d targets node %d of %d", i, nb.Node, nodes)
		}
		if w := nb.Weight; !(w > 0) || math.IsInf(w, 1) {
			return bad("adjacency entry %d has non-positive weight %v", i, w)
		}
		if g := nb.Group; g < -1 || int(g) >= len(s.groups) {
			return bad("adjacency entry %d references group %d of %d", i, g, len(s.groups))
		}
	}
	next := int32(0)
	for gid := range s.groups {
		pg := &s.groups[gid]
		if pg.N1 < 0 || pg.N2 < 0 || int32(pg.N1) >= nodes || int32(pg.N2) >= nodes || pg.N1 >= pg.N2 {
			return bad("group %d lies on invalid edge (%d, %d)", gid, pg.N1, pg.N2)
		}
		if !(pg.Weight > 0) || math.IsInf(pg.Weight, 1) {
			return bad("group %d has non-positive edge weight %v", gid, pg.Weight)
		}
		if int32(pg.First) != next || pg.Count <= 0 || int(pg.First)+int(pg.Count) > len(s.ptPos) {
			return bad("group %d violates the point-group invariant (first %d, count %d, want first %d)",
				gid, pg.First, pg.Count, next)
		}
		prev := math.Inf(-1)
		for i := int32(0); i < pg.Count; i++ {
			p := int32(pg.First) + i
			if s.ptGrp[p] != int32(gid) {
				return bad("point %d maps to group %d, expected %d", p, s.ptGrp[p], gid)
			}
			o := s.ptPos[p]
			if !(o >= 0) || o > pg.Weight || o < prev {
				return bad("point %d has offset %v outside [%v, %v] ascending", p, o, prev, pg.Weight)
			}
			prev = o
		}
		next += pg.Count
	}
	if int(next) != len(s.ptPos) {
		return bad("point groups cover %d of %d points", next, len(s.ptPos))
	}
	return nil
}
