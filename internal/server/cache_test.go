package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCachePutGet(t *testing.T) {
	c := NewResultCache(1 << 20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", []byte("v"))
	body, ok := c.Get("k")
	if !ok || string(body) != "v" {
		t.Fatalf("Get = %q, %v", body, ok)
	}
	// Replacement: same key, new body; entry count must not grow.
	c.Put("k", []byte("v2"))
	body, _ = c.Get("k")
	if string(body) != "v2" {
		t.Fatalf("after replace: %q", body)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.Capacity {
		t.Fatalf("bytes = %d, capacity %d", st.Bytes, st.Capacity)
	}
}

// TestCacheEviction fills the cache past its budget and checks the LRU tail
// goes first while recently used entries survive.
func TestCacheEviction(t *testing.T) {
	// Budget sized so the cache holds 4 of our entries.
	entrySize := (&cacheEntry{key: "p00", body: make([]byte, 400)}).size()
	c := NewResultCache(entrySize * 4)
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("p%02d", i), make([]byte, 400))
		// Keep p00 hot so it survives every eviction round.
		c.Get("p00")
	}
	st := c.Stats()
	if st.Evictions != 8 || st.Entries != 4 || st.Bytes != 4*entrySize {
		t.Fatalf("stats after overfill: %+v", st)
	}
	if _, ok := c.Get("p00"); !ok {
		t.Fatal("hot entry was evicted")
	}
	if _, ok := c.Get("p01"); ok {
		t.Fatal("cold tail entry survived overfill")
	}
	// The survivors are the hot entry and the three most recent puts.
	for _, k := range []string{"p09", "p10", "p11"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recent entry %s was evicted", k)
		}
	}
}

// TestCacheOversized: a body larger than the whole budget is not cached —
// inserting it would wipe the cache for one entry.
func TestCacheOversized(t *testing.T) {
	c := NewResultCache(256)
	c.Put("big", make([]byte, 4096))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized entry was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversized put: %+v", st)
	}
}

func TestSingleflightCollapses(t *testing.T) {
	c := NewResultCache(1 << 20)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	leader := func() ([]byte, error) {
		computes.Add(1)
		close(started)
		<-release
		return []byte("answer"), nil
	}
	follower := func() ([]byte, error) {
		computes.Add(1)
		return []byte("answer"), nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, shared, err := c.Do(context.Background(), "k", leader)
		if err != nil || shared || string(body) != "answer" {
			t.Errorf("leader: %q %v %v", body, shared, err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, shared, err := c.Do(context.Background(), "k", follower)
			if err != nil || string(body) != "answer" {
				t.Errorf("follower: %q %v", body, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let followers park on the flight
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}
	if sharedCount.Load() != waiters {
		t.Fatalf("shared = %d, want %d", sharedCount.Load(), waiters)
	}
	if st := c.Stats(); st.Shared != waiters {
		t.Fatalf("stats.Shared = %d", st.Shared)
	}
}

// TestSingleflightFollowerErrors: a follower that sees the leader fail reruns
// the computation itself rather than inheriting the error, and a follower
// whose context expires gives up with ctx.Err.
func TestSingleflightFollowerErrors(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")

	go func() {
		_, _, _ = g.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started

	// Follower 1: bounded ctx, leader still running — must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := g.Do(ctx, "k", func() ([]byte, error) { return nil, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired follower err = %v", err)
	}

	// Follower 2: waits the leader out, sees the failure, recomputes solo.
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
			return []byte("mine"), nil
		})
		if err != nil || shared || string(body) != "mine" {
			t.Errorf("recovering follower: %q %v %v", body, shared, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
}

// TestCacheConcurrentHammer mixes puts, gets and singleflights across
// goroutines; meant for -race. Invariants: bytes and
// entries stay non-negative and within budget, bodies come back intact.
func TestCacheConcurrentHammer(t *testing.T) {
	c := NewResultCache(64 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					c.Put(k, bytes.Repeat([]byte{byte(len(k))}, 64+rng.Intn(256)))
				case 1:
					if body, ok := c.Get(k); ok && len(body) == 0 {
						t.Error("empty body on hit")
					}
				case 2:
					_, _, _ = c.Do(context.Background(), k, func() ([]byte, error) {
						return []byte("x"), nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d over capacity %d", st.Bytes, st.Capacity)
	}
}
