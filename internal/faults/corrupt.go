package faults

import (
	"graft/internal/dfs"
)

// CorruptReplicas flips one deterministic, seed-derived bit in one
// replica of every nth block of the cluster (every block when n <= 1)
// — simulated silent disk corruption beneath the checksum layer. The
// damaged replica and bit position derive from the seed and block ID
// alone, so a run is reproducible bit-for-bit from its seed. It
// returns the number of replicas corrupted.
//
// The flips bypass the cluster's CRC bookkeeping exactly the way real
// bit rot bypasses a filesystem: nothing notices until a read covering
// the flipped chunk verifies it against the namenode's golden checksum.
func CorruptReplicas(c *dfs.Cluster, seed int64, n int) int {
	if n < 1 {
		n = 1
	}
	corrupted := 0
	for i, b := range c.BlockIDs() {
		if i%n != 0 {
			continue
		}
		locs := c.ReplicaNodes(b)
		if len(locs) == 0 {
			continue
		}
		h := splitmix64(uint64(seed) ^ splitmix64(uint64(b)+0x9e3779b97f4a7c15))
		node := locs[int(h%uint64(len(locs)))]
		bit := int64(splitmix64(h) % (1 << 20))
		if c.FlipReplicaBit(b, node, bit) {
			corrupted++
		}
	}
	return corrupted
}
