package storage

import "math"

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// validWeight reports whether w is a usable edge weight: finite and > 0.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }
