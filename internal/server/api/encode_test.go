package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"netclus"
)

// appender is a response body with a typed encoder.
type appender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// checkSameAsMarshal fails unless v.AppendJSON writes exactly json.Marshal's
// bytes after a prefix it leaves alone, or both fail with the same message
// and the prefix comes back unchanged.
func checkSameAsMarshal(t *testing.T, v appender) {
	t.Helper()
	want, werr := json.Marshal(v)
	prefix := []byte("ab")
	got, gerr := v.AppendJSON(prefix)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%#v: json.Marshal error %v, AppendJSON error %v", v, werr, gerr)
	case gerr != nil:
		if gerr.Error() != werr.Error() || string(got) != "ab" {
			t.Fatalf("%#v: AppendJSON failed with %q and %q, json.Marshal with %q", v, gerr, got, werr)
		}
	case string(got[:2]) != "ab" || !bytes.Equal(got[2:], want):
		t.Fatalf("%#v:\nAppendJSON   %s\njson.Marshal %s", v, got, want)
	}
}

// FuzzResponseBodies: every read body's AppendJSON equals json.Marshal byte
// for byte, or both fail. rows is read as little-endian int32s (labels and
// point IDs); x and y are the floats, spread over eps, r and the distances;
// shape's bits pick nil or empty slices, a present prune block and the
// pruned flag.
func FuzzResponseBodies(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		0.1, 12.5, 1e308, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	names := []string{
		"mem", "", "a<b>&c", "line\u2028sep\u2029", "tab\tnl\n\x00\x1f\x7f",
		"bad\xff\xfeutf8", `quote"back\slash`, "héllo", "\u00e9\U0001f600",
	}
	rows := [][]byte{nil, {}, {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 7, 0, 0, 0}, {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 1}}
	for i, x := range floats {
		y := floats[(i+5)%len(floats)]
		f.Add(names[i%len(names)], "dbscan", int64(i), int32(i*1000), x, y, rows[i%len(rows)], uint8(i*37))
	}
	for i, name := range names {
		for shape := 0; shape < 32; shape += 3 {
			f.Add(name, names[(i+1)%len(names)], int64(-i), int32(-i), 0.5, 0.0, rows[shape%len(rows)], uint8(shape))
		}
	}

	f.Fuzz(func(t *testing.T, name, algo string, epoch int64, point int32, x, y float64, rows []byte, shape uint8) {
		var ids []int32
		if rows != nil {
			ids = make([]int32, 0, len(rows)/4)
		}
		for ; len(rows) >= 4; rows = rows[4:] {
			ids = append(ids, int32(binary.LittleEndian.Uint32(rows)))
		}
		var points []netclus.PointID
		var dists []PointDist
		if ids != nil {
			points = make([]netclus.PointID, 0, len(ids))
			dists = make([]PointDist, 0, len(ids))
		}
		for i, id := range ids {
			d := x
			switch i % 3 {
			case 1:
				d = y
			case 2:
				d = x * float64(id)
			}
			points = append(points, netclus.PointID(id))
			dists = append(dists, PointDist{Point: netclus.PointID(id), Dist: d})
		}
		if shape&1 != 0 && len(ids) == 0 {
			points, dists = nil, nil
		}
		var prune *netclus.PruneStats
		if shape&2 != 0 {
			prune = &netclus.PruneStats{
				Candidates: int(epoch), FilterAccepted: int(point), FilterRejected: -int(point),
				FilterUncertain: len(ids), ZeroTraversalQueries: int(shape), EarlyStops: int(epoch >> 32),
				PrunedPushes: math.MaxInt64, Refinements: math.MinInt64,
			}
		}
		checkSameAsMarshal(t, RangeResponse{
			Dataset: name, Epoch: epoch, Point: netclus.PointID(point), Eps: x,
			Count: len(ids), Points: points,
		})
		checkSameAsMarshal(t, RangeResponse{
			Dataset: name, Epoch: epoch, Point: netclus.PointID(point), Eps: y,
			Count: len(ids), Results: dists,
		})
		checkSameAsMarshal(t, KNNResponse{
			Dataset: name, Epoch: epoch, Point: netclus.PointID(point), K: int(point) * 3,
			Results: dists, Pruned: shape&4 != 0,
		})
		checkSameAsMarshal(t, ClusterResponse{
			Dataset: name, Epoch: epoch, Algo: algo, Clusters: len(ids), Noise: int(point),
			CorePoints: int(point >> 8), R: y, Labels: ids,
			Stats: ClusterStats{
				NodesSettled: int(epoch), HeapPushes: int(point), EdgesVisited: -1,
				GroupsRead: len(name), RangeQueries: int(shape),
			},
			Prune: prune,
		})
	})
}

// clusterBody is a serve-write-sized /cluster body: 50 000 labels in
// [-1, 399).
func clusterBody() ClusterResponse {
	rng := rand.New(rand.NewSource(1))
	labels := make([]int32, 50000)
	for i := range labels {
		labels[i] = int32(rng.Intn(400)) - 1
	}
	return ClusterResponse{
		Dataset: "tg", Epoch: 42, Algo: "dbscan", Clusters: 399, Noise: 125,
		CorePoints: 40000, Labels: labels,
		Stats: ClusterStats{NodesSettled: 1, HeapPushes: 2, EdgesVisited: 3, GroupsRead: 4, RangeQueries: 5},
	}
}

// BenchmarkClusterBody encodes one 50 000-label /cluster body with its typed
// encoder and, for comparison, with json.Marshal; -benchmem shows the
// allocations of each.
func BenchmarkClusterBody(b *testing.B) {
	resp := clusterBody()
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := resp.AppendJSON(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(resp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
		}
	})
}
