package api

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"

	"netclus"
)

// The read bodies — RangeResponse, KNNResponse and ClusterResponse — encode
// through typed appenders instead of reflection: one pass over the rows, the
// buffer sized from the row and label counts up front. Each AppendJSON must
// write exactly the bytes json.Marshal writes for the same value (the server's
// goldens, the benchmark's body check and FuzzResponseBodies compare against
// it), including its field order, omitempty, float spelling and string
// escaping, and must fail where json.Marshal fails: on a NaN or infinite
// float. On error the returned slice is b unchanged.

// appendString appends s as a JSON string. A string whose bytes all print
// as themselves — 0x20–0x7e except '"', '\\' and the HTML-escaped '<', '>'
// and '&' — is appended raw; any other goes through encoding/json, so HTML
// escaping, U+2028/U+2029 and invalid UTF-8 come out as json.Marshal writes
// them by construction.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json spells a float64: 'f' format, or
// 'e' when |f| < 1e-6 or |f| >= 1e21, with a two-digit negative exponent
// shortened (1e-07 → 1e-7). NaN and ±Inf fail with json.Marshal's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendInts appends xs as a JSON array. Its callers omit an empty slice.
func appendInts[T ~int32](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendPointDists appends rows as a JSON array of PointDist objects, nil as
// null.
func appendPointDists(b []byte, rows []PointDist) ([]byte, error) {
	if rows == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	var err error
	for i, pd := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"point":`...)
		b = strconv.AppendInt(b, int64(pd.Point), 10)
		b = append(b, `,"dist":`...)
		if b, err = appendFloat(b, pd.Dist); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// Per-row size estimates for the up-front buffer: a label of up to three
// digits, a point ID of up to six, a (point, dist) row with a full-precision
// distance. Longer rows only cost append a regrowth.
const (
	headerBytes   = 256
	labelBytes    = 4
	pointBytes    = 7
	pointRowBytes = 40
)

// AppendJSON appends the body json.Marshal writes for r.
func (r RangeResponse) AppendJSON(b []byte) ([]byte, error) {
	n0 := len(b)
	b = slices.Grow(b, headerBytes+len(r.Dataset)+pointBytes*len(r.Points)+pointRowBytes*len(r.Results))
	b = append(b, `{"dataset":`...)
	b = appendString(b, r.Dataset)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, r.Epoch, 10)
	b = append(b, `,"point":`...)
	b = strconv.AppendInt(b, int64(r.Point), 10)
	b = append(b, `,"eps":`...)
	var err error
	if b, err = appendFloat(b, r.Eps); err != nil {
		return b[:n0], err
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if len(r.Points) > 0 {
		b = append(b, `,"points":`...)
		b = appendInts(b, r.Points)
	}
	if len(r.Results) > 0 {
		b = append(b, `,"results":`...)
		if b, err = appendPointDists(b, r.Results); err != nil {
			return b[:n0], err
		}
	}
	return append(b, '}'), nil
}

// AppendJSON appends the body json.Marshal writes for r. Results has no
// omitempty: nil encodes as null, empty as [].
func (r KNNResponse) AppendJSON(b []byte) ([]byte, error) {
	n0 := len(b)
	b = slices.Grow(b, headerBytes+len(r.Dataset)+pointRowBytes*len(r.Results))
	b = append(b, `{"dataset":`...)
	b = appendString(b, r.Dataset)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, r.Epoch, 10)
	b = append(b, `,"point":`...)
	b = strconv.AppendInt(b, int64(r.Point), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"results":`...)
	var err error
	if b, err = appendPointDists(b, r.Results); err != nil {
		return b[:n0], err
	}
	b = append(b, `,"pruned":`...)
	b = strconv.AppendBool(b, r.Pruned)
	return append(b, '}'), nil
}

// AppendJSON appends the body json.Marshal writes for r, its ClusterStats
// and PruneStats blocks inline.
func (r ClusterResponse) AppendJSON(b []byte) ([]byte, error) {
	n0 := len(b)
	b = slices.Grow(b, headerBytes+len(r.Dataset)+len(r.Algo)+labelBytes*len(r.Labels))
	b = append(b, `{"dataset":`...)
	b = appendString(b, r.Dataset)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, r.Epoch, 10)
	b = append(b, `,"algo":`...)
	b = appendString(b, r.Algo)
	b = append(b, `,"clusters":`...)
	b = strconv.AppendInt(b, int64(r.Clusters), 10)
	b = append(b, `,"noise":`...)
	b = strconv.AppendInt(b, int64(r.Noise), 10)
	if r.CorePoints != 0 {
		b = append(b, `,"core_points":`...)
		b = strconv.AppendInt(b, int64(r.CorePoints), 10)
	}
	if r.R != 0 { // omitempty drops -0 too; NaN is != 0 and fails below
		b = append(b, `,"r":`...)
		var err error
		if b, err = appendFloat(b, r.R); err != nil {
			return b[:n0], err
		}
	}
	if len(r.Labels) > 0 {
		b = append(b, `,"labels":`...)
		b = appendInts(b, r.Labels)
	}
	b = append(b, `,"stats":{"nodes_settled":`...)
	b = strconv.AppendInt(b, int64(r.Stats.NodesSettled), 10)
	b = append(b, `,"heap_pushes":`...)
	b = strconv.AppendInt(b, int64(r.Stats.HeapPushes), 10)
	b = append(b, `,"edges_visited":`...)
	b = strconv.AppendInt(b, int64(r.Stats.EdgesVisited), 10)
	b = append(b, `,"groups_read":`...)
	b = strconv.AppendInt(b, int64(r.Stats.GroupsRead), 10)
	b = append(b, `,"range_queries":`...)
	b = strconv.AppendInt(b, int64(r.Stats.RangeQueries), 10)
	b = append(b, '}')
	if r.Prune != nil {
		b = appendPruneStats(append(b, `,"prune":`...), r.Prune)
	}
	return append(b, '}'), nil
}

// appendPruneStats appends p as json.Marshal writes a netclus.PruneStats.
func appendPruneStats(b []byte, p *netclus.PruneStats) []byte {
	b = append(b, `{"candidates":`...)
	b = strconv.AppendInt(b, int64(p.Candidates), 10)
	b = append(b, `,"filter_accepted":`...)
	b = strconv.AppendInt(b, int64(p.FilterAccepted), 10)
	b = append(b, `,"filter_rejected":`...)
	b = strconv.AppendInt(b, int64(p.FilterRejected), 10)
	b = append(b, `,"filter_uncertain":`...)
	b = strconv.AppendInt(b, int64(p.FilterUncertain), 10)
	b = append(b, `,"zero_traversal_queries":`...)
	b = strconv.AppendInt(b, int64(p.ZeroTraversalQueries), 10)
	b = append(b, `,"early_stops":`...)
	b = strconv.AppendInt(b, int64(p.EarlyStops), 10)
	b = append(b, `,"pruned_pushes":`...)
	b = strconv.AppendInt(b, int64(p.PrunedPushes), 10)
	b = append(b, `,"refinements":`...)
	b = strconv.AppendInt(b, int64(p.Refinements), 10)
	return append(b, '}')
}
