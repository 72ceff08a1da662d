package main

import "math/rand"

// splitmix64 is the SplitMix64 finalizer, a bijective mixer whose outputs are
// statistically independent even for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream roles: every consumer of randomness draws from its own substream of
// (seed, workload, role, index), so adding draws to one never shifts another.
const (
	roleProbes = iota + 1
	roleKMedoids
	roleClient
	roleMutate
	roleLayers
	roleCheck
)

// substream derives an independent generator from the benchmark seed.
func substream(seed int64, workload, role, index int) *rand.Rand {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ (uint64(workload)+1)*0xa0761d6478bd642f)
	x = splitmix64(x ^ (uint64(role)+1)*0xe7037ed1a0b428db)
	x = splitmix64(x ^ (uint64(index)+1)*0x8ebc6af09c88c6e3)
	return rand.New(rand.NewSource(int64(x)))
}
