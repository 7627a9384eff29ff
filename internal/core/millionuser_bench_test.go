package core

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkMillionUserMemory is the memory-flatness gate: one 64-shard
// point at the full 100k req/s aggregate rate, at 10⁴ vs 10⁶ simulated
// users. The aggregated population keeps per-user state out of the run
// entirely, and the recorder's samples grow with completed requests, not
// users, so B/op must stay flat (CI asserts within 2×) as the population
// grows 100×.
func BenchmarkMillionUserMemory(b *testing.B) {
	for _, users := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := runMillionUser(1, 64, users, millionRate, 2*time.Second)
				if r.completed == 0 {
					b.Fatal("no requests completed")
				}
			}
		})
	}
}
