package pagebuf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// onDisk writes content to a fresh file in dir and attaches it to p.
func onDisk(t *testing.T, p *Pool, dir, name string, content []byte) *File {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := p.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ringLen counts the frames linked into p's LRU ring.
func ringLen(p *Pool) int {
	n := 0
	for fr := p.ring.next; fr != &p.ring; fr = fr.next {
		n++
	}
	return n
}

// TestFullPoolFaultsWithoutAllocating: once every frame is in use a fault
// reads into the frame it evicts and a hit only relinks its frame, so
// neither allocates anything.
func TestFullPoolFaultsWithoutAllocating(t *testing.T) {
	const pageSize, frames, pages = 4096, 4, 32
	p, err := NewPool(frames*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, pages*pageSize)
	for i := range content {
		content[i] = byte(i / pageSize)
	}
	f := onDisk(t, p, t.TempDir(), "x.dat", content)
	defer f.Close()

	buf := make([]byte, 8)
	next := 0
	fault := func() {
		if err := f.ReadAt(buf, int64(next)*pageSize); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(next) {
			t.Fatalf("page %d reads %d", next, buf[0])
		}
		next = (next + 1) % pages // sequential over 8x the pool: every read faults
	}
	for i := 0; i < frames; i++ {
		fault()
	}
	const n = 400
	faults := p.Stats().PhysicalReads
	if allocs := testing.AllocsPerRun(n, fault); allocs != 0 {
		t.Fatalf("%v allocations per fault on a full pool", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of the n it averages.
	if got := p.Stats().PhysicalReads - faults; got != n+1 {
		t.Fatalf("%d faults in %d reads: the workload does not fault every time", got, n+1)
	}
	hits := p.Stats()
	hit := func() {
		// Read the page just faulted in, into a stack buffer of the caller's
		// that must not be moved to the heap.
		var b [8]byte
		if err := f.ReadAt(b[:], int64(next+pages-1)%pages*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(n, hit); allocs != 0 {
		t.Fatalf("%v allocations per hit on a full pool", allocs)
	}
	if d := p.Stats().Sub(hits); d.LogicalReads != n+1 || d.PhysicalReads != 0 {
		t.Fatalf("hits read %+v, want %d logical and no physical reads", d, n+1)
	}
	if len(p.frames) != frames || ringLen(p) != frames {
		t.Fatalf("%d table entries, %d ring entries, want %d", len(p.frames), ringLen(p), frames)
	}
}

// TestRecycledFrameReadsZerosPastData: the one frame of the pool last held a
// page full of 0xAA; reused for the file's partial last page, and for a page
// beyond the written end, it must read zeros wherever the file has no data.
func TestRecycledFrameReadsZerosPastData(t *testing.T) {
	const pageSize = 128
	content := append(bytes.Repeat([]byte{0xAA}, pageSize), bytes.Repeat([]byte{0xBB}, 40)...)
	for _, tc := range []struct {
		name    string
		writeAt int64 // one byte written here extends the file over the gap
		gapFrom int64
	}{
		{"partial last page", pageSize + 122, pageSize + 40},
		{"page beyond the written end", 5*pageSize + 100, 5 * pageSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(pageSize, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			f := onDisk(t, p, t.TempDir(), "x.dat", content)
			defer f.Close()
			full := make([]byte, pageSize)
			if err := f.ReadAt(full, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, content[:pageSize]) {
				t.Fatal("page 0 misread")
			}
			if err := f.WriteAt([]byte{7}, tc.writeAt); err != nil {
				t.Fatal(err)
			}
			gap := make([]byte, tc.writeAt-tc.gapFrom)
			if err := f.ReadAt(gap, tc.gapFrom); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gap, make([]byte, len(gap))) {
				t.Fatalf("bytes [%d,%d) show the frame's previous page: % x", tc.gapFrom, tc.writeAt, gap)
			}
		})
	}
}

// TestOneFrameAlternatingDirtyPages: with a single frame every access to the
// other page evicts a dirty one, which must reach disk before its buffer is
// overwritten by the incoming page.
func TestOneFrameAlternatingDirtyPages(t *testing.T) {
	const pageSize = 128
	p, err := NewPool(pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.dat")
	f, err := p.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, 2*pageSize)
	for i := 0; i < 2*pageSize; i++ {
		off := (i%2)*pageSize + i/2
		shadow[off] = byte(i + 1)
		if err := f.WriteAt(shadow[off:off+1], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(shadow))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("read-back through the pool differs from what was written")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, shadow) {
		t.Fatalf("file on disk differs from what was written (err %v)", err)
	}
}

// TestFailedFaultLeavesNoFrame: a fault whose read fails must not leave a
// half-filled entry behind, and the pool keeps serving its other files.
func TestFailedFaultLeavesNoFrame(t *testing.T) {
	const pageSize, frames = 128, 2
	p, err := NewPool(frames*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	broken := onDisk(t, p, dir, "broken.dat", bytes.Repeat([]byte{0xEE}, 4*pageSize))
	good := onDisk(t, p, dir, "good.dat", bytes.Repeat([]byte{0x11}, 4*pageSize))
	defer good.Close()

	buf := make([]byte, pageSize)
	for pg := int64(0); pg < frames; pg++ { // fill the pool with good's pages
		if err := good.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	broken.os.Close() // the descriptor goes away underneath the pool
	for pg := int64(0); pg < 4; pg++ {
		if err := broken.ReadAt(buf, pg*pageSize); err == nil {
			t.Fatal("want an error reading through a closed descriptor")
		}
	}
	p.mu.Lock()
	for _, fr := range p.frames {
		if fr.f == broken {
			t.Errorf("failed fault left page %d in the frame table", fr.page)
		}
	}
	if len(p.frames) != ringLen(p) || ringLen(p) > frames {
		t.Errorf("%d table entries, %d ring entries, capacity %d", len(p.frames), ringLen(p), frames)
	}
	p.mu.Unlock()
	for pg := int64(0); pg < 4; pg++ {
		if err := good.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0x11}, pageSize)) {
			t.Fatalf("good.dat page %d misread after the failed faults", pg)
		}
	}
}
