package network

import (
	"context"
	"testing"
)

// BenchmarkCancelCheck times one context poll of a traversal loop (the
// counter is reset so every call polls) on a live cancellable context, the
// kind every served query carries.
func BenchmarkCancelCheck(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ticks := 0
		if err := cancelCheck(ctx, &ticks); err != nil {
			b.Fatal(err)
		}
	}
}
