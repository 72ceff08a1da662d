package pagebuf

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentReadWrite hammers one file from several goroutines, each
// owning a disjoint region, through pools small enough to force constant
// eviction. Run under -race in CI.
func TestConcurrentReadWrite(t *testing.T) {
	const (
		workers = 8
		region  = 2048
		rounds  = 20
	)
	for _, frames := range []int{4, 8} {
		p, dir := newTestPool(t, frames*256, 256)
		f, err := p.Open(filepath.Join(dir, "x.dat"))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(w)))
				base := int64(w * region)
				data := make([]byte, region)
				got := make([]byte, region)
				for r := 0; r < rounds; r++ {
					rnd.Read(data)
					if err := f.WriteAt(data, base); err != nil {
						errs[w] = err
						return
					}
					if err := f.ReadAt(got, base); err != nil {
						errs[w] = err
						return
					}
					if !bytes.Equal(got, data) {
						errs[w] = errors.New("read back mismatch")
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		st := p.Stats()
		if st.LogicalReads == 0 || st.PhysicalReads == 0 {
			t.Fatalf("stats did not accumulate: %+v", st)
		}
		if st.Evictions == 0 {
			t.Fatalf("a %d-frame pool over %d bytes must evict: %+v", frames, workers*region, st)
		}
	}
}

// TestConcurrentStatsSnapshot reads stats while traffic is in flight.
func TestConcurrentStatsSnapshot(t *testing.T) {
	p, dir := newTestPool(t, 4*256, 256)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for i := 0; i < 200; i++ {
			if err := f.ReadAt(buf, int64(i%8)*512); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		st := p.Stats()
		if st.PhysicalReads > st.LogicalReads {
			t.Fatalf("inconsistent snapshot: %+v", st)
		}
		if hr := st.HitRatio(); hr < 0 || hr > 1 {
			t.Fatalf("hit ratio %v out of [0, 1]", hr)
		}
	}
	<-done
}

// TestClosedFile checks the ErrClosed behaviour and Close idempotency.
func TestClosedFile(t *testing.T) {
	p, dir := newTestPool(t, 1024, 256)
	f, err := p.Open(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := f.ReadAt(make([]byte, 5), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after Close: got %v, want ErrClosed", err)
	}
	if err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt after Close: got %v, want ErrClosed", err)
	}
	if err := f.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: got %v, want ErrClosed", err)
	}
}
