package dfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize is the chunk size for Cluster files. Real HDFS uses
// 64-128 MB; trace files are small, so the simulated default is 64 KiB
// to make multi-block paths actually exercise block logic.
const DefaultBlockSize = 64 << 10

// bytesPerChecksum is the chunk one CRC-32 of a block covers, as HDFS's
// dfs.bytes-per-checksum, so a point read checksums what it returns.
const bytesPerChecksum = 512

// BlockID identifies one block in the namenode index. Exported so the
// fault-injection layer (internal/faults) can target individual
// replicas for corruption experiments.
type BlockID int64

// Cluster simulates a distributed file system: a namenode maps file
// paths to block lists, and each block is replicated on several
// datanodes. Datanodes can be killed and revived; reads fall through
// across replicas, so Graft traces survive single-node failures the
// way HDFS-backed traces do. Healing is not simulated: a block stays
// on the nodes it was written to, and recovery belongs to the engine.
//
// The namenode lock covers only block allocation, replica-set
// bookkeeping and file commits; replica puts and gets happen with it
// released. Every block carries one CRC-32 per 512-byte chunk, and every
// byte served is verified: a read checks the chunks that cover it, and a
// replica that fails is quarantined (dropped, counted in CorruptReads)
// and the read falls through to another replica. A corrupt chunk is
// found by the first read that covers it.
type Cluster struct {
	mu          sync.RWMutex
	nodes       []*DataNode
	files       map[string]*fileVersion
	blocks      map[BlockID]*blockMeta
	replication int
	blockSize   int
	nextBlock   BlockID
	nextNode    int // round-robin placement cursor

	// rotor rotates the replica a read starts from, spreading load
	// across live nodes instead of always hammering the first holder.
	rotor atomic.Int64

	// writeRetries counts block placements re-attempted on another
	// node because the first choice was dead (mid-write datanode
	// failure tolerance).
	writeRetries atomic.Int64
	// degradedWrites counts blocks committed with fewer live replicas
	// than the replication factor.
	degradedWrites atomic.Int64
	// corruptReads counts replicas that failed checksum verification
	// and were quarantined.
	corruptReads atomic.Int64
	// bytesWritten / bytesRead count replica payload traffic.
	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

// blockMeta is the namenode's record of one block: its size, golden
// CRC-32 per chunk (the last may be short), and which datanodes hold a
// replica (live or dead — a killed node keeps its replicas for a later
// Revive). locations is guarded by Cluster.mu and replaced, never edited
// in place; size and crcs are immutable after allocation.
type blockMeta struct {
	size      int
	crcs      []uint32
	locations []int
}

// verify reports whether a replica has the block's size and matches
// the golden checksum of every chunk that overlaps [lo, hi).
func (m *blockMeta) verify(data []byte, lo, hi int) bool {
	ok := len(data) == m.size
	for i := lo / bytesPerChecksum; ok && i*bytesPerChecksum < hi; i++ {
		ok = crc32.ChecksumIEEE(data[i*bytesPerChecksum:min((i+1)*bytesPerChecksum, len(data))]) == m.crcs[i]
	}
	return ok
}

// fileVersion is one committed incarnation of a path. Streaming
// readers pin the version they opened; an overwrite or Remove marks it
// dead, and its blocks are freed when the last pinned reader closes.
// Readers share blocks and offs, which never change once committed.
type fileVersion struct {
	blocks []BlockID
	offs   []int64 // offs[i] is block i's file offset; offs[len(blocks)] the size
	refs   int
	dead   bool
}

// DataNode is one simulated storage node.
type DataNode struct {
	mu     sync.RWMutex
	id     int
	alive  bool
	blocks map[BlockID][]byte
	// gets counts successful replica reads served, for replica-rotation
	// tests and load accounting.
	gets atomic.Int64
}

// ID returns the node's index in the cluster (-1 for a nil node).
func (n *DataNode) ID() int {
	if n == nil {
		return -1
	}
	return n.id
}

// Alive reports whether the node is up. A nil node is dead.
func (n *DataNode) Alive() bool {
	if n == nil {
		return false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.alive
}

// Gets returns how many replica reads the node has served (0 for a
// nil node) — how replica-rotation tests observe read load spreading.
func (n *DataNode) Gets() int64 {
	if n == nil {
		return 0
	}
	return n.gets.Load()
}

// NumBlocks returns how many block replicas the node stores (0 for a
// nil node).
func (n *DataNode) NumBlocks() int {
	if n == nil {
		return 0
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.blocks)
}

func (n *DataNode) put(id BlockID, data []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return false
	}
	n.blocks[id] = data
	return true
}

func (n *DataNode) get(id BlockID) ([]byte, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.alive {
		return nil, false
	}
	data, ok := n.blocks[id]
	if ok {
		n.gets.Add(1)
	}
	return data, ok
}

func (n *DataNode) drop(id BlockID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocks, id)
}

// NewCluster creates a cluster with numNodes datanodes, the given
// replication factor (clamped to numNodes) and block size (0 means
// DefaultBlockSize).
func NewCluster(numNodes, replication, blockSize int) *Cluster {
	if numNodes < 1 {
		numNodes = 1
	}
	if replication < 1 {
		replication = 1
	}
	if replication > numNodes {
		replication = numNodes
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	c := &Cluster{
		files:       make(map[string]*fileVersion),
		blocks:      make(map[BlockID]*blockMeta),
		replication: replication,
		blockSize:   blockSize,
	}
	for i := 0; i < numNodes; i++ {
		c.nodes = append(c.nodes, &DataNode{id: i, alive: true, blocks: map[BlockID][]byte{}})
	}
	return c
}

// Node returns the i-th datanode for failure injection in tests, or
// nil when i is out of range. DataNode query methods treat a nil
// receiver as a dead, empty node, so chained calls like
// Node(i).Alive() stay safe on a bad index.
func (c *Cluster) Node(i int) *DataNode {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// NumNodes returns the datanode count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Kill marks a datanode dead; its replicas become unreadable until a
// Revive. Out-of-range indexes are ignored.
func (c *Cluster) Kill(node int) { c.setAlive(node, false) }

// Revive brings a killed datanode back with its blocks intact (a
// transient failure, not a disk loss). Out-of-range indexes are
// ignored.
func (c *Cluster) Revive(node int) { c.setAlive(node, true) }

func (c *Cluster) setAlive(node int, alive bool) {
	n := c.Node(node)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.alive = alive
	n.mu.Unlock()
}

// ClusterStats is a snapshot of the data-path counters, in the shape
// the metrics layer exports.
type ClusterStats struct {
	// BytesWritten counts replica payload bytes stored (each replica of
	// a block counts once).
	BytesWritten int64 `json:"bytes_written"`
	// BytesRead counts block payload bytes served to readers.
	BytesRead int64 `json:"bytes_read"`
	// CorruptReads counts replicas quarantined after failing checksum
	// verification.
	CorruptReads int64 `json:"corrupt_reads"`
	// WriteRetries counts replica placements re-attempted on another
	// node.
	WriteRetries int64 `json:"write_retries"`
	// DegradedWrites counts blocks committed under-replicated.
	DegradedWrites int64 `json:"degraded_writes"`
}

// Add folds o's counters into s.
func (s *ClusterStats) Add(o ClusterStats) {
	s.BytesWritten += o.BytesWritten
	s.BytesRead += o.BytesRead
	s.CorruptReads += o.CorruptReads
	s.WriteRetries += o.WriteRetries
	s.DegradedWrites += o.DegradedWrites
}

// Sub takes o's counters out of s.
func (s *ClusterStats) Sub(o ClusterStats) {
	s.Add(ClusterStats{-o.BytesWritten, -o.BytesRead, -o.CorruptReads, -o.WriteRetries, -o.DegradedWrites})
}

// Any reports whether any counter is nonzero.
func (s ClusterStats) Any() bool { return s != ClusterStats{} }

// String renders the counters as a compact key=value line.
func (s ClusterStats) String() string {
	return fmt.Sprintf("written=%dB read=%dB corrupt-reads=%d write-retries=%d degraded-writes=%d",
		s.BytesWritten, s.BytesRead, s.CorruptReads, s.WriteRetries, s.DegradedWrites)
}

// Stats snapshots the cluster's data-path counters.
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		BytesWritten:   c.bytesWritten.Load(),
		BytesRead:      c.bytesRead.Load(),
		CorruptReads:   c.corruptReads.Load(),
		WriteRetries:   c.writeRetries.Load(),
		DegradedWrites: c.degradedWrites.Load(),
	}
}

// Create implements FileSystem.
func (c *Cluster) Create(path string) (io.WriteCloser, error) {
	if err := validatePath(path); err != nil {
		return nil, err
	}
	return &clusterWriter{c: c, path: path}, nil
}

// placeBlock checksums data per chunk and stores it on `replication`
// datanodes. The namenode lock covers only block-ID allocation and the
// candidate order; the puts run with it released. Candidates are tried
// in round-robin order from the placement cursor, over every node, until
// `replication` puts succeed: a dead candidate costs one WriteRetries
// and the put falls through to the next node, and a block placed on at
// least one node succeeds, under-replicated (counted in DegradedWrites)
// when fewer accepted it. It returns an error only when no node accepts
// the block.
func (c *Cluster) placeBlock(data []byte) (BlockID, error) {
	crcs := make([]uint32, 0, (len(data)+bytesPerChecksum-1)/bytesPerChecksum)
	for i := 0; i < len(data); i += bytesPerChecksum {
		crcs = append(crcs, crc32.ChecksumIEEE(data[i:min(i+bytesPerChecksum, len(data))]))
	}
	c.mu.Lock()
	id := c.nextBlock
	c.nextBlock++
	start := c.nextNode
	c.nextNode += c.replication
	meta := &blockMeta{size: len(data), crcs: crcs}
	c.blocks[id] = meta
	c.mu.Unlock()

	var locs []int
	for i := 0; i < len(c.nodes) && len(locs) < c.replication; i++ {
		n := c.nodes[(start+i)%len(c.nodes)]
		if n.put(id, data) {
			locs = append(locs, n.id)
		} else {
			c.writeRetries.Add(1)
		}
	}
	sort.Ints(locs)
	c.mu.Lock()
	if len(locs) == 0 {
		delete(c.blocks, id)
		c.mu.Unlock()
		return 0, ErrNoDataNodes
	}
	meta.locations = locs
	c.mu.Unlock()
	if len(locs) < c.replication {
		c.degradedWrites.Add(1)
	}
	c.bytesWritten.Add(int64(len(data)) * int64(len(locs)))
	return id, nil
}

// commit publishes a completed write: the path atomically switches to
// the new block list. A superseded version is freed immediately unless
// in-flight streaming readers still pin its snapshot, in which case
// the last reader Close frees it.
func (c *Cluster) commit(path string, blocks []BlockID) {
	ver := &fileVersion{blocks: blocks, offs: make([]int64, len(blocks)+1)}
	c.mu.Lock()
	for i, b := range blocks {
		ver.offs[i+1] = ver.offs[i] + int64(c.blocks[b].size)
	}
	if old, ok := c.files[path]; ok {
		c.retireLocked(old)
	}
	c.files[path] = ver
	c.mu.Unlock()
}

// retireLocked marks a file version dead, freeing its blocks now or —
// when streaming readers still hold the snapshot — at the last reader
// Close. Caller holds c.mu.
func (c *Cluster) retireLocked(ver *fileVersion) {
	ver.dead = true
	if ver.refs == 0 {
		c.freeBlocksLocked(ver.blocks)
		ver.blocks = nil
	}
}

// freeBlocksLocked drops every replica of the given blocks and removes
// them from the namenode index; caller holds c.mu.
func (c *Cluster) freeBlocksLocked(blocks []BlockID) {
	for _, b := range blocks {
		meta := c.blocks[b]
		if meta == nil {
			continue
		}
		for _, nid := range meta.locations {
			c.nodes[nid].drop(b)
		}
		delete(c.blocks, b)
	}
}

// release unpins one streaming reader from its file version, freeing
// the snapshot's blocks if the version was superseded while the reader
// was in flight.
func (c *Cluster) release(ver *fileVersion) {
	c.mu.Lock()
	ver.refs--
	if ver.dead && ver.refs == 0 {
		c.freeBlocksLocked(ver.blocks)
		ver.blocks = nil
	}
	c.mu.Unlock()
}

// Open implements FileSystem. The returned handle pins the version
// committed at Open time and shares its block list: an overwrite
// committed mid-read does not disturb it. Read fetches the file block
// by block as the caller consumes it; ReadAt fetches only the blocks
// covering its range. Both go through readBlock, so every byte served
// is checksum-verified and replica selection rotates across live nodes.
func (c *Cluster) Open(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	ver, ok := c.files[path]
	if !ok {
		c.mu.Unlock()
		return nil, ErrNotExist
	}
	ver.refs++
	c.mu.Unlock()
	return &clusterReader{c: c, ver: ver, path: path, blocks: ver.blocks, offs: ver.offs}, nil
}

// readBlock fetches one block to serve its bytes [lo, hi); every byte
// served is verified, by checking the replica's chunks that overlap them
// against the golden checksums. A corrupt replica is quarantined and the
// read falls through to the next one. The starting replica rotates so repeated reads
// spread across live holders.
func (c *Cluster) readBlock(b BlockID, lo, hi int) ([]byte, bool) {
	c.mu.RLock()
	meta := c.blocks[b]
	var locs []int
	if meta != nil {
		locs = meta.locations
	}
	c.mu.RUnlock()
	if meta == nil || len(locs) == 0 {
		return nil, false
	}
	start := int((c.rotor.Add(1) - 1) % int64(len(locs)))
	for i := 0; i < len(locs); i++ {
		nid := locs[(start+i)%len(locs)]
		data, ok := c.nodes[nid].get(b)
		if !ok {
			continue
		}
		if !meta.verify(data, lo, hi) {
			c.quarantine(b, nid)
			continue
		}
		c.bytesRead.Add(int64(len(data)))
		return data, true
	}
	return nil, false
}

// quarantine drops a checksum-failed replica from its node and the
// namenode index.
func (c *Cluster) quarantine(b BlockID, node int) {
	c.corruptReads.Add(1)
	c.nodes[node].drop(b)
	c.mu.Lock()
	if meta := c.blocks[b]; meta != nil {
		meta.locations = slices.DeleteFunc(slices.Clone(meta.locations), func(n int) bool { return n == node })
	}
	c.mu.Unlock()
}

// clusterReader is an open Cluster file. Sequential Reads fetch its
// blocks one at a time as the caller consumes them; ReadAt is
// independent of the stream and safe for concurrent use. blocks and
// offs are the pinned version's own, read-only.
type clusterReader struct {
	c      *Cluster
	ver    *fileVersion
	path   string
	blocks []BlockID
	offs   []int64
	closed bool

	// Streaming state: cur is the unread rest of block next-1, and err
	// sticks once a block is unavailable.
	cur  []byte
	next int
	err  error
}

// Size returns the file's length.
func (r *clusterReader) Size() int64 { return r.offs[len(r.blocks)] }

// ReadAt implements io.ReaderAt, fetching only the blocks that cover
// [off, off+len(p)) and verifying only the chunks that cover it.
func (r *clusterReader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, io.ErrClosedPipe
	}
	if off < 0 {
		return 0, fmt.Errorf("dfs: negative offset %d reading %q", off, r.path)
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := 0
	first := sort.Search(len(r.blocks), func(i int) bool { return r.offs[i+1] > off })
	for i := first; n < len(p) && i < len(r.blocks); i++ {
		lo := int(off + int64(n) - r.offs[i])
		hi := int(min(r.offs[i+1]-r.offs[i], int64(lo+len(p)-n)))
		data, ok := r.c.readBlock(r.blocks[i], lo, hi)
		if !ok {
			return n, fmt.Errorf("%w: block %d of %q", ErrBlockUnavailable, r.blocks[i], r.path)
		}
		n += copy(p[n:], data[lo:hi])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *clusterReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, io.ErrClosedPipe
	}
	if r.err != nil {
		return 0, r.err
	}
	for len(r.cur) == 0 {
		if r.next == len(r.blocks) {
			return 0, io.EOF
		}
		b := r.blocks[r.next]
		data, ok := r.c.readBlock(b, 0, int(r.offs[r.next+1]-r.offs[r.next]))
		if !ok {
			r.err = fmt.Errorf("%w: block %d of %q", ErrBlockUnavailable, b, r.path)
			return 0, r.err
		}
		r.cur = data
		r.next++
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

func (r *clusterReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.c.release(r.ver)
	return nil
}

// List implements FileSystem.
func (c *Cluster) List(prefix string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for name := range c.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FileSystem. Blocks pinned by in-flight streaming
// readers are freed when the last reader closes.
func (c *Cluster) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ver, ok := c.files[path]
	if !ok {
		return ErrNotExist
	}
	c.retireLocked(ver)
	delete(c.files, path)
	return nil
}

// BlockIDs returns every block in the namenode index, sorted, for
// corruption experiments (internal/faults).
func (c *Cluster) BlockIDs() []BlockID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]BlockID, 0, len(c.blocks))
	for b := range c.blocks {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReplicaNodes returns the IDs of the datanodes holding replicas of b,
// sorted.
func (c *Cluster) ReplicaNodes(b BlockID) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	meta := c.blocks[b]
	if meta == nil {
		return nil
	}
	locs := append([]int(nil), meta.locations...)
	sort.Ints(locs)
	return locs
}

// FlipReplicaBit flips one bit (bit must be non-negative; offsets wrap
// around the block length) in the copy of block b stored on the given
// node — simulated silent disk corruption for checksum experiments.
// The replica's bytes are copied first, because co-replicas share the
// writer's backing array and must stay intact. It reports whether the
// node held the block.
func (c *Cluster) FlipReplicaBit(b BlockID, node int, bit int64) bool {
	n := c.Node(node)
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	data, ok := n.blocks[b]
	if !ok || len(data) == 0 {
		return false
	}
	cp := append([]byte(nil), data...)
	i := int(bit/8) % len(cp)
	cp[i] ^= 1 << (bit % 8)
	n.blocks[b] = cp
	return true
}

type clusterWriter struct {
	c      *Cluster
	path   string
	tail   []byte // the bytes past the last placed block, fewer than a block
	blocks []BlockID
	closed bool
	err    error
}

// Write places each block as soon as it is whole: a block is copied
// once out of p into the slice its replicas share, and only a tail
// shorter than one block waits for the next Write or Close.
func (w *clusterWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 && w.err == nil {
		k := min(w.c.blockSize-len(w.tail), len(p))
		w.tail = append(w.tail, p[:k]...)
		p = p[k:]
		if len(w.tail) == w.c.blockSize {
			w.err = w.placeTail()
		}
	}
	// p is accepted whole even past a failed placement; the error sticks.
	return n, w.err
}

// placeTail places the staged tail as the file's next block. The
// replicas keep the slice, so the next Write starts a fresh one.
func (w *clusterWriter) placeTail() error {
	id, err := w.c.placeBlock(w.tail)
	w.tail = nil
	if err != nil {
		return err
	}
	w.blocks = append(w.blocks, id)
	return nil
}

func (w *clusterWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err == nil && len(w.tail) > 0 {
		w.err = w.placeTail()
	}
	if w.err != nil {
		// The write is abandoned, never committed; free the blocks it
		// placed so they do not leak in the namenode index.
		w.c.mu.Lock()
		w.c.freeBlocksLocked(w.blocks)
		w.c.mu.Unlock()
		return w.err
	}
	w.c.commit(w.path, w.blocks)
	return nil
}
