package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withDir runs a subcommand pipeline inside a temp dir by prefixing file
// arguments; the subcommand functions are tested directly (no subprocess).
func tmp(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestPipelineGenerateClusterViz(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "city")

	if err := genNetwork([]string{"-name", "OL", "-scale", "0.05", "-out", prefix}); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".node", ".edge"} {
		if _, err := os.Stat(prefix + ext); err != nil {
			t.Fatalf("missing %s: %v", ext, err)
		}
	}
	if err := genPoints([]string{"-in", prefix, "-n", "800", "-k", "4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prefix + ".pnt"); err != nil {
		t.Fatal(err)
	}
	if err := stats([]string{"-in", prefix}); err != nil {
		t.Fatal(err)
	}

	labels := filepath.Join(dir, "labels.tsv")
	if err := cluster([]string{"-in", prefix, "-algo", "eps-link", "-eps", "0.2", "-minsup", "3", "-out", labels}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(labels)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 800 {
		t.Fatalf("labels file has %d lines, want 800", lines)
	}

	svg := filepath.Join(dir, "map.svg")
	if err := vizCmd([]string{"-in", prefix, "-labels", labels, "-out", svg}); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "</svg>") {
		t.Fatal("svg output malformed")
	}
}

func TestPipelineStoreAndAllAlgorithms(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "city")
	if err := genNetwork([]string{"-name", "grid", "-rows", "15", "-cols", "15", "-extra", "40", "-out", prefix}); err != nil {
		t.Fatal(err)
	}
	if err := genPoints([]string{"-in", prefix, "-n", "400", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	if err := buildStore([]string{"-in", prefix, "-dir", storeDir}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-store", storeDir, "-algo", "eps-link", "-eps", "0.5"},
		{"-store", storeDir, "-algo", "dbscan", "-eps", "0.5", "-minpts", "3"},
		{"-store", storeDir, "-algo", "k-medoids", "-k", "3"},
		{"-store", storeDir, "-algo", "single-link", "-k", "3"},
		{"-in", prefix, "-algo", "single-link", "-eps", "0.5", "-delta", "0.2"},
		{"-in", prefix, "-algo", "optics", "-eps", "1.0", "-cut", "0.5"},
	} {
		if err := cluster(args); err != nil {
			t.Fatalf("cluster %v: %v", args, err)
		}
	}
	// A store written before the format word existed (bytes 24-27 of
	// meta.bin zero) is refused with the storage layer's message, verbatim.
	meta, err := os.ReadFile(filepath.Join(storeDir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	clear(meta[24:28])
	if err := os.WriteFile(filepath.Join(storeDir, "meta.bin"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cluster([]string{"-store", storeDir, "-algo", "eps-link", "-eps", "0.5"})
	if err == nil || !strings.Contains(err.Error(), "rebuild it with `netclus store`") {
		t.Fatalf("cluster on a format-1 store: %v", err)
	}
}

func TestClusterValidation(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "x")
	if err := genNetwork([]string{"-name", "grid", "-rows", "5", "-cols", "5", "-out", prefix}); err != nil {
		t.Fatal(err)
	}
	if err := genPoints([]string{"-in", prefix, "-n", "20", "-k", "2"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                                   // neither -in nor -store
		{"-in", prefix, "-algo", "eps-link"}, // missing eps
		{"-in", prefix, "-algo", "dbscan"},   // missing eps
		{"-in", prefix, "-algo", "nonsense", "-eps", "1"},
		{"-in", filepath.Join(dir, "missing"), "-algo", "eps-link", "-eps", "1"},
		{"-in", prefix, "-algo", "single-link", "-delta", "NaN"}, // flag parses NaN; the library refuses it
	}
	for _, args := range cases {
		if err := cluster(args); err == nil {
			t.Fatalf("cluster %v: want error", args)
		}
	}
	if err := genNetwork([]string{"-name", "XX", "-out", tmp(t, "y")}); err == nil {
		t.Fatal("want error for unknown road name")
	}
	if err := genNetwork([]string{}); err == nil {
		t.Fatal("want error for missing -out")
	}
	if err := genPoints([]string{}); err == nil {
		t.Fatal("want error for missing -in")
	}
	if err := buildStore([]string{}); err == nil {
		t.Fatal("want error for missing flags")
	}
	if err := vizCmd([]string{}); err == nil {
		t.Fatal("want error for missing -in")
	}
	if err := stats([]string{}); err == nil {
		t.Fatal("want error for missing -in")
	}
}

func TestKNNCommand(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "x")
	if err := genNetwork([]string{"-name", "grid", "-rows", "8", "-cols", "8", "-out", prefix}); err != nil {
		t.Fatal(err)
	}
	if err := genPoints([]string{"-in", prefix, "-n", "60", "-k", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := knn([]string{"-in", prefix, "-p", "3", "-k", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := knn([]string{}); err == nil {
		t.Fatal("want error for missing -in")
	}
	if err := knn([]string{"-in", prefix, "-p", "9999"}); err == nil {
		t.Fatal("want error for bad point")
	}
}

func TestReadLabels(t *testing.T) {
	path := tmp(t, "l.tsv")
	if err := os.WriteFile(path, []byte("0\t2\n1\t-1\n2\t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	labels, err := readLabels(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 2 || labels[1] != -1 || labels[2] != 0 {
		t.Fatalf("labels %v", labels)
	}
	// Malformed inputs.
	for _, bad := range []string{"0\n", "x\t1\n", "0\ty\n", "99\t0\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readLabels(path, 3); err == nil {
			t.Fatalf("readLabels accepted %q", bad)
		}
	}
	if _, err := readLabels(tmp(t, "missing.tsv"), 1); err == nil {
		t.Fatal("want error for missing file")
	}
}
