package pagebuf

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T, bufferBytes, pageSize int) (*Pool, string) {
	t.Helper()
	p, err := NewPool(bufferBytes, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, t.TempDir()
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(1024, 16); err == nil {
		t.Fatal("want error for tiny page size")
	}
	if _, err := NewPool(10, 4096); err == nil {
		t.Fatal("want error for buffer smaller than a page")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p, dir := newTestPool(t, 4*256, 256)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	data := make([]byte, 3000) // spans many 256-byte pages
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(data)
	if err := f.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3100 {
		t.Fatalf("size %d, want 3100", f.Size())
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadBeyondEOF(t *testing.T) {
	p, dir := newTestPool(t, 1024, 256)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(make([]byte, 6), 0); err == nil {
		t.Fatal("want error reading past logical size")
	}
	if err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("want error for negative offset")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	p, dir := newTestPool(t, 1024, 256)
	path := filepath.Join(dir, "x.dat")
	f, err := p.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("durable payload spanning pages; durable payload spanning pages")
	if err := f.WriteAt(payload, 500); err != nil {
		t.Fatal(err)
	}
	// A write after a Flush must still reach the file at Close.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p2.OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for _, off := range []int64{500, 100} {
		got := make([]byte, len(payload))
		if err := f2.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload at %d lost across reopen", off)
		}
	}
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	// Pool of 2 frames; touch many pages so dirty pages must be evicted.
	p, dir := newTestPool(t, 2*128, 128)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 20; i++ {
		if err := f.WriteAt([]byte{byte(i)}, int64(i)*128); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with a 2-frame pool")
	}
	for i := 0; i < 20; i++ {
		b := make([]byte, 1)
		if err := f.ReadAt(b, int64(i)*128); err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(i) {
			t.Fatalf("page %d: got %d", i, b[0])
		}
	}
}

func TestStatsHitRatio(t *testing.T) {
	p, dir := newTestPool(t, 8*128, 128)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(make([]byte, 4*128), 0); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	b := make([]byte, 128)
	for i := 0; i < 10; i++ {
		if err := f.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.LogicalReads != 10 || st.PhysicalReads != 0 {
		t.Fatalf("stats %+v: want 10 logical, 0 physical", st)
	}
	if st.HitRatio() != 1 {
		t.Fatalf("hit ratio %v, want 1", st.HitRatio())
	}
	zero := Stats{}
	if zero.HitRatio() != 0 {
		t.Fatal("empty stats hit ratio should be 0")
	}
	if d := st.Sub(Stats{LogicalReads: 4}); d.LogicalReads != 6 {
		t.Fatalf("Sub: %+v", d)
	}
}

func TestSharedPoolAcrossFiles(t *testing.T) {
	p, dir := newTestPool(t, 2*128, 128)
	a, err := p.Open(filepath.Join(dir, "a.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := p.Open(filepath.Join(dir, "b.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt([]byte{2}, 0); err != nil {
		t.Fatal(err)
	}
	// Same page number in different files must not collide.
	x, y := make([]byte, 1), make([]byte, 1)
	if err := a.ReadAt(x, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(y, 0); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || y[0] != 2 {
		t.Fatalf("cross-file page collision: %d %d", x[0], y[0])
	}
}

func TestQuickRandomAccessMatchesShadow(t *testing.T) {
	// Property: a sequence of random writes and reads through a tiny pool
	// behaves exactly like an in-memory byte slice.
	p, dir := newTestPool(t, 3*64, 64)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shadow := make([]byte, 0, 4096)
	rnd := rand.New(rand.NewSource(42))

	op := func(off uint16, n uint8, write bool) bool {
		o := int64(off % 2048)
		ln := int(n%64) + 1
		if write {
			buf := make([]byte, ln)
			rnd.Read(buf)
			if err := f.WriteAt(buf, o); err != nil {
				t.Logf("write: %v", err)
				return false
			}
			if need := int(o) + ln; need > len(shadow) {
				shadow = append(shadow, make([]byte, need-len(shadow))...)
			}
			copy(shadow[o:], buf)
			return true
		}
		if int(o)+ln > len(shadow) {
			return f.ReadAt(make([]byte, ln), o) != nil // must error
		}
		buf := make([]byte, ln)
		if err := f.ReadAt(buf, o); err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return bytes.Equal(buf, shadow[o:int(o)+ln])
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 2000, Rand: rnd}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingDirectoryFails(t *testing.T) {
	p, _ := newTestPool(t, 1024, 256)
	if _, err := p.Open(filepath.Join(string(os.PathSeparator), "nonexistent-dir-xyz", "f")); err == nil {
		t.Fatal("want error opening file in missing directory")
	}
}

// TestOpenReadOnly: a read-only open creates nothing, names a missing file in
// an error wrapping fs.ErrNotExist, reads what is there, refuses WriteAt and
// leaves the file's bytes alone.
func TestOpenReadOnly(t *testing.T) {
	p, dir := newTestPool(t, 1024, 256)
	path := filepath.Join(dir, "x.dat")
	_, err := p.OpenReadOnly(path)
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
		t.Fatalf("missing file: got %v, want an fs.ErrNotExist naming %s", err, path)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenReadOnly created %s (stat: %v)", path, err)
	}
	payload := bytes.Repeat([]byte("read-only "), 60)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := p.OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadAt: %v, equal %v", err, bytes.Equal(got, payload))
	}
	if err := f.WriteAt([]byte("x"), 3); err == nil {
		t.Fatal("WriteAt on a read-only file succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("the file changed under a read-only open (err %v)", err)
	}
}
