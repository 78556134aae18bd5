package dfs

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBlockSize is the chunk size for Cluster files. Real HDFS uses
// 64-128 MB; trace files are small, so the simulated default is 64 KiB
// to make multi-block paths actually exercise block logic.
const DefaultBlockSize = 64 << 10

// BlockID identifies one block in the namenode index. Exported so the
// fault-injection layer (internal/faults) can target individual
// replicas for corruption experiments.
type BlockID int64

// Cluster simulates a distributed file system: a namenode maps file
// paths to block lists, and each block is replicated on several
// datanodes. Datanodes can be killed and revived; reads fall back
// across replicas, and Rereplicate heals under-replicated blocks, so
// Graft traces survive single-node failures the way HDFS-backed traces
// do.
//
// The data path is built for concurrency: the namenode lock covers
// only block allocation, replica-set bookkeeping and file commits,
// while the replica puts of one block fan out concurrently and the
// gets of a streaming read happen with the lock released. Every block
// carries a CRC-32 checksum; a replica that fails verification at read
// time is quarantined (dropped, counted in CorruptReads) and the read
// falls through to another replica. A per-block replica index plus a
// suspect set make UnderReplicated and Rereplicate proportional to the
// number of damaged blocks rather than to cluster size.
type Cluster struct {
	mu          sync.RWMutex
	nodes       []*DataNode
	files       map[string]*fileVersion
	blocks      map[BlockID]*blockMeta
	suspect     map[BlockID]struct{} // blocks that may have < replication live replicas
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
	// prefetches counts streaming-read blocks that the read-ahead had
	// already fetched by the time the consumer asked for them.
	prefetches atomic.Int64
}

// blockMeta is the namenode's record of one block: its golden CRC-32,
// size, and which datanodes hold a replica (live or dead — a killed
// node keeps its replicas for a later Revive). locations is guarded by
// Cluster.mu; size and crc are immutable after allocation.
type blockMeta struct {
	size      int
	crc       uint32
	locations []int
}

// fileVersion is one committed incarnation of a path. Streaming
// readers pin the version they opened; an overwrite or Remove marks it
// dead, and its blocks are freed when the last pinned reader closes.
type fileVersion struct {
	blocks []BlockID
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
	// delayNanos models the per-replica-operation transfer cost; the
	// device serializes its transfers (ioMu), so concurrent operations
	// against one node queue while different nodes proceed in parallel.
	delayNanos atomic.Int64
	ioMu       sync.Mutex
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

// ioCost charges the node's simulated transfer time. The device moves
// one stream at a time, so concurrent transfers to the same node
// queue behind each other while other nodes transfer in parallel —
// which is exactly the asymmetry the pipelined write path and rotating
// replica selection exploit.
func (n *DataNode) ioCost() {
	if d := n.delayNanos.Load(); d > 0 {
		n.ioMu.Lock()
		time.Sleep(time.Duration(d))
		n.ioMu.Unlock()
	}
}

func (n *DataNode) put(id BlockID, data []byte) bool {
	n.ioCost()
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return false
	}
	n.blocks[id] = data
	return true
}

func (n *DataNode) get(id BlockID) ([]byte, bool) {
	n.ioCost()
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
		suspect:     make(map[BlockID]struct{}),
		replication: replication,
		blockSize:   blockSize,
	}
	for i := 0; i < numNodes; i++ {
		c.nodes = append(c.nodes, &DataNode{id: i, alive: true, blocks: map[BlockID][]byte{}})
	}
	return c
}

// SetNodeDelay models the per-replica-operation transfer cost of every
// datanode, for experiments where the round-trip cost of replication —
// not CPU — is the point. Configure before issuing I/O.
func (c *Cluster) SetNodeDelay(d time.Duration) {
	for _, n := range c.nodes {
		n.delayNanos.Store(int64(d))
	}
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

// Kill marks a datanode dead; its replicas become unreadable. Every
// block the node held is queued as suspect, so the next Rereplicate
// visits exactly the damaged blocks — the namenode reacting to a lost
// heartbeat, not rescanning every file. Out-of-range indexes are
// ignored.
func (c *Cluster) Kill(node int) {
	n := c.Node(node)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.alive = false
	ids := make([]BlockID, 0, len(n.blocks))
	for id := range n.blocks {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	c.mu.Lock()
	for _, id := range ids {
		if _, ok := c.blocks[id]; ok {
			c.suspect[id] = struct{}{}
		}
	}
	c.mu.Unlock()
}

// Revive brings a killed datanode back with its blocks intact (a
// transient failure, not a disk loss) and immediately heals
// under-replicated blocks — node recovery triggers re-replication the
// way a namenode reacts to a returning heartbeat. It returns the
// number of replicas the heal created (0 for an out-of-range index).
func (c *Cluster) Revive(node int) int {
	n := c.Node(node)
	if n == nil {
		return 0
	}
	n.mu.Lock()
	n.alive = true
	n.mu.Unlock()
	return c.Rereplicate()
}

// WriteRetries returns how many block placements were re-attempted on
// another datanode because the first choice was dead.
func (c *Cluster) WriteRetries() int64 { return c.writeRetries.Load() }

// DegradedWrites returns how many blocks were committed with fewer
// live replicas than the replication factor (durably written, but
// awaiting Rereplicate).
func (c *Cluster) DegradedWrites() int64 { return c.degradedWrites.Load() }

// CorruptReads returns how many replicas failed checksum verification
// and were quarantined.
func (c *Cluster) CorruptReads() int64 { return c.corruptReads.Load() }

// ClusterStats is a snapshot of the data-path counters, in the shape
// the metrics layer exports.
type ClusterStats struct {
	// BytesWritten counts replica payload bytes stored (each replica of
	// a block counts once).
	BytesWritten int64 `json:"bytes_written"`
	// BytesRead counts block payload bytes served to readers.
	BytesRead int64 `json:"bytes_read"`
	// Prefetches counts streaming-read blocks the read-ahead had
	// already fetched when the consumer asked.
	Prefetches int64 `json:"prefetches"`
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
	s.Prefetches += o.Prefetches
	s.CorruptReads += o.CorruptReads
	s.WriteRetries += o.WriteRetries
	s.DegradedWrites += o.DegradedWrites
}

// Any reports whether any counter is nonzero.
func (s ClusterStats) Any() bool { return s != ClusterStats{} }

// String renders the counters as a compact key=value line.
func (s ClusterStats) String() string {
	return fmt.Sprintf("written=%dB read=%dB prefetches=%d corrupt-reads=%d write-retries=%d degraded-writes=%d",
		s.BytesWritten, s.BytesRead, s.Prefetches, s.CorruptReads, s.WriteRetries, s.DegradedWrites)
}

// Stats snapshots the cluster's data-path counters.
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		BytesWritten:   c.bytesWritten.Load(),
		BytesRead:      c.bytesRead.Load(),
		Prefetches:     c.prefetches.Load(),
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

// placeBlock stores data on `replication` datanodes. The namenode lock
// covers only block-ID allocation and candidate selection; the replica
// puts fan out concurrently (pipelined replication), so parallel
// writers — trace sink drainers, checkpoint workers — no longer
// serialize behind one global mutex. A node that dies mid-write is
// tolerated: the put falls through to the next candidate (counted in
// WriteRetries), every node is tried before giving up, and a block
// placed on at least one node succeeds — possibly under-replicated
// (counted in DegradedWrites and queued as suspect) until Rereplicate
// or a Revive heals it. It returns an error only when no node accepts
// the block.
func (c *Cluster) placeBlock(data []byte) (BlockID, error) {
	crc := crc32.ChecksumIEEE(data)
	c.mu.Lock()
	id := c.nextBlock
	c.nextBlock++
	// Candidate order: round-robin from the placement cursor, extended
	// over every node so failed puts can fall through to any survivor.
	order := make([]int, len(c.nodes))
	start := c.nextNode
	c.nextNode += c.replication
	for i := range order {
		order[i] = (start + i) % len(c.nodes)
	}
	meta := &blockMeta{size: len(data), crc: crc}
	c.blocks[id] = meta
	c.mu.Unlock()

	// One goroutine per replica, all claiming candidates from a shared
	// cursor, so no two replicas land on the same node and a dead
	// candidate costs one retry, not a serialized rescan.
	placedBy := make([]int, c.replication)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < c.replication; r++ {
		placedBy[r] = -1
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(order) {
					return
				}
				n := c.nodes[order[i]]
				if n.put(id, data) {
					placedBy[r] = n.id
					return
				}
				c.writeRetries.Add(1)
			}
		}(r)
	}
	wg.Wait()

	locs := placedBy[:0:0]
	for _, nid := range placedBy {
		if nid >= 0 {
			locs = append(locs, nid)
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
	if len(locs) < c.replication {
		c.suspect[id] = struct{}{}
	}
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
	c.mu.Lock()
	if old, ok := c.files[path]; ok {
		c.retireLocked(old)
	}
	c.files[path] = &fileVersion{blocks: blocks}
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
		delete(c.suspect, b)
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

// Open implements FileSystem. The returned handle works over a snapshot
// of the block list and block sizes taken at Open time: an overwrite
// committed mid-read does not disturb it. Read streams the file block
// by block, a background read-ahead (started by the first Read) keeping
// the next block in flight while the caller consumes the current one;
// ReadAt fetches only the blocks covering its range. Both go through
// readBlock, so every block served is checksum-verified and replica
// selection rotates across live nodes.
func (c *Cluster) Open(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	ver, ok := c.files[path]
	if !ok {
		c.mu.Unlock()
		return nil, ErrNotExist
	}
	blocks := append([]BlockID(nil), ver.blocks...)
	ends := make([]int64, len(blocks))
	var size int64
	for i, b := range blocks {
		size += int64(c.blocks[b].size)
		ends[i] = size
	}
	ver.refs++
	c.mu.Unlock()
	return &clusterReader{c: c, ver: ver, path: path, blocks: blocks, ends: ends}, nil
}

// readBlock fetches one block, verifying each candidate replica's
// CRC-32 against the namenode's golden checksum. A corrupt replica is
// quarantined and the read falls through to the next one. The starting
// replica rotates so repeated reads spread across live holders.
func (c *Cluster) readBlock(b BlockID) ([]byte, bool) {
	c.mu.RLock()
	meta := c.blocks[b]
	var locs []int
	if meta != nil {
		locs = append([]int(nil), meta.locations...)
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
		if crc32.ChecksumIEEE(data) != meta.crc {
			c.quarantine(b, nid)
			continue
		}
		c.bytesRead.Add(int64(len(data)))
		return data, true
	}
	return nil, false
}

// quarantine drops a checksum-failed replica from its node and the
// namenode index and queues the block for healing.
func (c *Cluster) quarantine(b BlockID, node int) {
	c.corruptReads.Add(1)
	c.nodes[node].drop(b)
	c.mu.Lock()
	if meta := c.blocks[b]; meta != nil {
		removeLocation(meta, node)
		c.suspect[b] = struct{}{}
	}
	c.mu.Unlock()
}

func removeLocation(meta *blockMeta, node int) {
	for i, nid := range meta.locations {
		if nid == node {
			meta.locations = append(meta.locations[:i], meta.locations[i+1:]...)
			return
		}
	}
}

// blockFetch is one read-ahead result.
type blockFetch struct {
	data []byte
	err  error
}

// clusterReader is an open Cluster file. Sequential Reads stream its
// blocks with single-block read-ahead: while the caller consumes block
// k, the fetcher is already pulling block k+1 from a replica,
// overlapping replica round trips with consumption. ReadAt is
// independent of the stream and safe for concurrent use.
type clusterReader struct {
	c      *Cluster
	ver    *fileVersion
	path   string
	blocks []BlockID
	ends   []int64 // ends[i] is the file offset one past block i
	closed bool

	// Streaming state; fetched is nil until the first Read starts the
	// read-ahead goroutine.
	cur     []byte
	fetched chan blockFetch
	stop    chan struct{}
	done    bool
	err     error
}

// Size returns the file's length.
func (r *clusterReader) Size() int64 {
	if len(r.ends) == 0 {
		return 0
	}
	return r.ends[len(r.ends)-1]
}

// ReadAt implements io.ReaderAt, fetching only the blocks that cover
// [off, off+len(p)).
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
	first := sort.Search(len(r.ends), func(i int) bool { return r.ends[i] > off })
	for i := first; n < len(p) && i < len(r.blocks); i++ {
		data, ok := r.c.readBlock(r.blocks[i])
		if !ok {
			return n, fmt.Errorf("%w: block %d of %q", ErrBlockUnavailable, r.blocks[i], r.path)
		}
		start := r.ends[i] - int64(len(data))
		n += copy(p[n:], data[off+int64(n)-start:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *clusterReader) fetch() {
	defer close(r.fetched)
	for _, b := range r.blocks {
		data, ok := r.c.readBlock(b)
		f := blockFetch{data: data}
		if !ok {
			f.err = fmt.Errorf("%w: block %d of %q", ErrBlockUnavailable, b, r.path)
		}
		select {
		case r.fetched <- f:
			if f.err != nil {
				return
			}
		case <-r.stop:
			return
		}
	}
}

func (r *clusterReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, io.ErrClosedPipe
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.fetched == nil {
		r.fetched = make(chan blockFetch, 1)
		r.stop = make(chan struct{})
		go r.fetch()
	}
	for len(r.cur) == 0 {
		if r.done {
			return 0, io.EOF
		}
		var f blockFetch
		var ok bool
		select {
		case f, ok = <-r.fetched:
			if ok {
				// The block was waiting before we asked: a read-ahead hit.
				r.c.prefetches.Add(1)
			}
		default:
			f, ok = <-r.fetched
		}
		if !ok {
			r.done = true
			return 0, io.EOF
		}
		if f.err != nil {
			r.err = f.err
			return 0, r.err
		}
		r.cur = f.data
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
	if r.fetched != nil {
		close(r.stop)
		// Drain until the fetcher closes the channel, so its goroutine
		// has exited before the version is unpinned.
		for range r.fetched {
		}
	}
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

// UnderReplicated returns the number of blocks with fewer than the
// target number of live replicas. Only the suspect set is scanned —
// every event that can reduce a block's live replicas (a node death, a
// degraded write, a quarantined replica) queues exactly the affected
// blocks — so the cost is proportional to damage, not to cluster size.
func (c *Cluster) UnderReplicated() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	count := 0
	for b := range c.suspect {
		if c.liveReplicasLocked(b) < c.replication {
			count++
		}
	}
	return count
}

// liveReplicasLocked counts b's replicas on live nodes; caller holds
// c.mu (read or write).
func (c *Cluster) liveReplicasLocked(b BlockID) int {
	meta := c.blocks[b]
	if meta == nil {
		return 0
	}
	live := 0
	for _, nid := range meta.locations {
		if c.nodes[nid].Alive() {
			live++
		}
	}
	return live
}

// Rereplicate copies under-replicated blocks from a live replica onto
// live nodes that lack them, restoring the replication factor where
// possible. Only suspect blocks are visited, so a heal after one node
// failure costs time proportional to that node's replicas, not to
// files×blocks×nodes. It returns the number of new replicas created.
func (c *Cluster) Rereplicate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	created := 0
	for b := range c.suspect {
		healed, n := c.healBlockLocked(b)
		created += n
		if healed {
			delete(c.suspect, b)
		}
	}
	return created
}

// healBlockLocked restores one block's replication, reporting whether
// the block is fully replicated again (so it can leave the suspect
// set) and how many replicas were created. The copy source must pass
// checksum verification — healing never propagates a corrupt replica;
// corrupt sources found along the way are quarantined inline. Caller
// holds c.mu.
func (c *Cluster) healBlockLocked(b BlockID) (bool, int) {
	meta := c.blocks[b]
	if meta == nil {
		return true, 0 // freed concurrently; nothing to heal
	}
	var data []byte
	for _, nid := range append([]int(nil), meta.locations...) {
		n := c.nodes[nid]
		if !n.Alive() {
			continue
		}
		d, ok := n.get(b)
		if !ok {
			continue
		}
		if crc32.ChecksumIEEE(d) != meta.crc {
			c.corruptReads.Add(1)
			n.drop(b)
			removeLocation(meta, nid)
			continue
		}
		data = d
		break
	}
	if data == nil {
		// No verified live source; a Revive may bring one back later, so
		// the block stays suspect.
		return false, 0
	}
	has := make(map[int]bool, len(meta.locations))
	for _, nid := range meta.locations {
		has[nid] = true
	}
	live := c.liveReplicasLocked(b)
	created := 0
	for _, n := range c.nodes {
		if live >= c.replication {
			break
		}
		if has[n.id] || !n.Alive() {
			continue
		}
		if n.put(b, data) {
			meta.locations = append(meta.locations, n.id)
			live++
			created++
			c.bytesWritten.Add(int64(len(data)))
		}
	}
	return live >= c.replication, created
}

// Scrub verifies the checksum of every replica of every block — the
// analogue of HDFS's background block scanner. Corrupt replicas are
// quarantined so the next Rereplicate heals them, and the number found
// is returned. Unlike the read path, which only verifies the replicas
// it happens to select, Scrub is exhaustive; replicas on dead nodes
// are skipped (they cannot be verified until the node revives).
func (c *Cluster) Scrub() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	found := 0
	for b, meta := range c.blocks {
		for _, nid := range append([]int(nil), meta.locations...) {
			n := c.nodes[nid]
			d, ok := n.get(b)
			if !ok {
				continue
			}
			if crc32.ChecksumIEEE(d) != meta.crc {
				c.corruptReads.Add(1)
				n.drop(b)
				removeLocation(meta, nid)
				c.suspect[b] = struct{}{}
				found++
			}
		}
	}
	return found
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
	buf    bytes.Buffer
	blocks []BlockID
	closed bool
	err    error
}

func (w *clusterWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	if w.err != nil {
		return 0, w.err
	}
	n, _ := w.buf.Write(p)
	for w.buf.Len() >= w.c.blockSize {
		if err := w.flushBlock(w.c.blockSize); err != nil {
			w.err = err
			// Every byte of p was accepted into the buffer before the
			// flush failed; report the accepted count alongside the
			// error so io.Copy-style callers account correctly.
			return n, err
		}
	}
	return n, nil
}

func (w *clusterWriter) flushBlock(size int) error {
	data := make([]byte, size)
	if _, err := io.ReadFull(&w.buf, data); err != nil {
		return err
	}
	id, err := w.c.placeBlock(data)
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
	if w.err == nil && w.buf.Len() > 0 {
		w.err = w.flushBlock(w.buf.Len())
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
