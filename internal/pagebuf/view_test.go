package pagebuf

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestView: View shows a page's bytes in place up to the logical end, counts
// one logical read a call, and refuses pages the file does not have.
func TestView(t *testing.T) {
	const pageSize = 128
	p, err := NewPool(2*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 2*pageSize+40) // the last page is partial
	for i := range content {
		content[i] = byte(i)
	}
	f := onDisk(t, p, t.TempDir(), "x.dat", content)
	for pageNo, want := range [][]byte{content[:pageSize], content[pageSize : 2*pageSize], content[2*pageSize:]} {
		before := p.Stats()
		err := f.View(int64(pageNo), func(page []byte) error {
			if !bytes.Equal(page, want) {
				t.Errorf("page %d: %d bytes % x…, want %d bytes % x…", pageNo, len(page), page[:4], len(want), want[:4])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Stats().Sub(before); d.LogicalReads != 1 {
			t.Fatalf("View of page %d counted %d logical reads, want 1", pageNo, d.LogicalReads)
		}
	}
	errFn := errors.New("from fn")
	if err := f.View(0, func([]byte) error { return errFn }); err != errFn {
		t.Fatalf("View returned %v, want fn's error", err)
	}
	for _, pageNo := range []int64{-1, 3, maxPages} {
		if err := f.View(pageNo, func([]byte) error { t.Fatalf("fn ran on page %d", pageNo); return nil }); err == nil {
			t.Fatalf("View of page %d: want an error past the logical end", pageNo)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.View(0, func([]byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after Close: got %v, want ErrClosed", err)
	}
}

// TestFrameKeyLimits: a frame key holds a 24-bit file id above a 40-bit page
// number, so a span reaching page 2^40 and a 2^24-th file are refused rather
// than aliasing another frame.
func TestFrameKeyLimits(t *testing.T) {
	const pageSize = 64
	p, err := NewPool(4*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt([]byte{1}, maxPages*pageSize); err == nil {
		t.Fatal("WriteAt on page 2^40: want an error")
	}
	if err := f.WriteAt([]byte{1, 2}, maxPages*pageSize-1); err == nil {
		t.Fatal("WriteAt reaching page 2^40: want an error")
	}
	if err := f.WriteAt([]byte{1}, 1<<62); err == nil {
		t.Fatal("WriteAt at 2^62: want an error")
	}
	if f.Size() != 0 {
		t.Fatalf("refused writes grew the file to %d bytes", f.Size())
	}
	f.size.Store(maxPages*pageSize + pageSize) // as if the file were that long
	if err := f.ReadAt(make([]byte, 1), maxPages*pageSize); err == nil {
		t.Fatal("ReadAt on page 2^40: want an error")
	}
	f.size.Store(0)

	p.nextFile.Store(maxFiles - 1)
	last, err := p.Open(filepath.Join(dir, "last.dat"))
	if err != nil {
		t.Fatalf("file id 2^24-1: %v", err)
	}
	defer last.Close()
	if _, err := p.Open(filepath.Join(dir, "over.dat")); err == nil {
		t.Fatal("file id 2^24: want an error")
	}
	// The last id and id 0 share no frame.
	if err := last.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := last.ReadAt(got, 0); err != nil || got[0] != 9 {
		t.Fatalf("last file reads %v (%v), want 9", got, err)
	}
}
