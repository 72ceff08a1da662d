package storage

import (
	"strings"
	"testing"
)

// TestCheckDataSize: Build refuses a data file that would grow past the
// 4 GiB a uint32 record offset addresses, naming the file.
func TestCheckDataSize(t *testing.T) {
	if err := checkDataSize("adj.dat", 1<<32); err != nil {
		t.Fatalf("a 4 GiB adj.dat: %v", err)
	}
	err := checkDataSize("pts.dat", 1<<32+1)
	if err == nil || !strings.Contains(err.Error(), "pts.dat") {
		t.Fatalf("pts.dat one byte past 4 GiB: %v, want an error naming it", err)
	}
}
