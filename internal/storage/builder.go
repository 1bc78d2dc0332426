package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage/vfs"
)

// HybridLevelBuilder builds a HybridLevel from t concurrently written parts —
// the output side of one exploration iteration (paper Fig. 7) and the only
// level builder. Part i receives the child groups of the i-th contiguous
// range of parent embeddings; distinct parts may be written concurrently,
// each by a single goroutine, its owner.
//
// Every part starts in memory; the budget governor reads the budget scope's
// live bytes at every charge and, when they reach the watermark, marks the
// parts still growing for migration (and sheds flushed parts as far as the
// overshoot requires). A marked part is drained to disk through the
// WriteQueue (write-behind: the part's accumulated — oldest — data goes out),
// by its owner at its next append or by the governor, and keeps appending to
// disk from then on. Parts charge the governor a slab
// of bytes at a time (see governor), so with a watermark the build can never
// over-run it by more than one slab per part between charges, and a level
// that fits — every level of an unbudgeted run, whose watermark is out of
// reach — stays entirely in memory: each part finishes raw and is handed to
// the level where it was written, with no copy, no filesystem call and no
// I/O goroutine.
type HybridLevelBuilder struct {
	dir       string
	level     int
	queue     *WriteQueue
	blockSize int // prefetch block size handed to the level; 0 = DefaultBlockSize (tests shrink it)
	tracker   *memtrack.Tracker
	fs        vfs.FS
	gov       governor
	parts     []hybridPartWriter
	headroom  int64 // the build's bytes under the watermark, read at Reset
	reserved  int64
}

// NewHybridLevelBuilder creates the level builder of one run; Reset arms it
// for a build. env supplies what the run configured once — the filesystem the
// spill files live on and the tracker — and the remaining arguments are the
// run-scoped resources its explorer owns. dir and the part files in it are
// created lazily, only when a part actually migrates (a build that cannot
// migrate may pass a nil queue), and the files always hold v2 codec blocks.
// watermark is the absolute limit on the budget scope's live bytes
// (env.Tracker's SharedLive) at which the governor spills; math.MaxInt64 is
// no budget. A watermark needs bytes to read: without a tracker nothing
// spills.
func NewHybridLevelBuilder(env *run.Env, dir string, q *WriteQueue, watermark int64) *HybridLevelBuilder {
	b := &HybridLevelBuilder{dir: dir, queue: q, tracker: env.Tracker, fs: vfs.OrOS(env.FS)}
	b.gov = governor{watermark: watermark, tracker: env.Tracker, b: b}
	return b
}

// Reset arms the builder for a level build of nparts parts, reusing its
// part-writer slice (and, through the part pool, the buffers of levels that
// have since been closed). level names the new level's spill files. The
// build's headroom under the watermark is read once, here: with none left
// every part goes to disk immediately (the all-disk regime).
func (b *HybridLevelBuilder) Reset(level, nparts int) {
	b.level = level
	if cap(b.parts) < nparts {
		b.parts = make([]hybridPartWriter, nparts)
	} else {
		b.parts = b.parts[:nparts]
	}
	b.reserved = 0
	b.headroom = b.gov.reset(nparts)
	for i := range b.parts {
		p := &b.parts[i]
		p.b, p.idx = b, i
		p.verts, p.counts, p.scratch = nil, nil, nil
		p.shownVerts, p.shownCounts = nil, nil
		p.bytes.Store(0)
		// All-disk regime: nothing fits, so skip the pointless memory stay —
		// the first append migrates with an empty replay.
		p.spillReq.Store(b.headroom <= 0)
		p.flushed.Store(false)
		p.claimed = 0
		p.uncharged = 0
		p.pressed = false
		p.onDisk = false
		p.migrated = false
		p.dwSealed = false
		p.dw = diskPartWriter{}
	}
}

// hybridPartWriter receives one part's groups. Each part is appended by a
// single goroutine, its owner. Another goroutine may migrate a marked part
// (see migrate), but reads only what the owner showed at its last charge.
type hybridPartWriter struct {
	b   *HybridLevelBuilder
	idx int

	// Memory stage (owner-only until flushed).
	verts  []uint32
	counts []uint32
	// scratch is the group buffer NextGroup hands out once the part has
	// migrated (owner-only).
	scratch []uint32

	// Placement control.
	bytes     atomic.Int64 // resident bytes charged to the governor
	spillReq  atomic.Bool
	flushed   atomic.Bool
	claimed   int64 // bytes credited to governor.pending at mark time
	uncharged int64 // owner-only: bytes appended since the last charge; 0 once flushed or migrated
	pressed   bool  // owner-only: the last charge found the scope at or over the watermark
	onDisk    bool  // owner-only: the owner appends to dw

	mu sync.Mutex // guards the fields below
	// shownVerts and shownCounts are verts and counts as of the owner's
	// last charge before the part migrated: all a non-owner may drain. The
	// owner appends only past their ends, so their elements do not change.
	shownVerts, shownCounts []uint32
	migrated                bool // dw holds the part's files and at least the shown groups
	dwSealed                bool
	dw                      diskPartWriter
}

// Part returns the writer of part i of the build's nparts.
func (b *HybridLevelBuilder) Part(i int) *hybridPartWriter { return &b.parts[i] }

// ReservePart pre-grows part i's memory buffers to hold about verts child
// units in groups groups — the pre-sizing that replaces append-doubling
// during cold-start expansion with one up-front allocation. It is a hint, not
// a limit: parts still grow on demand past the reserve. A part's reserve is
// capped at twice its even share of the build's headroom, and reserves stop
// once their sum reaches the headroom — capacity is real resident memory,
// and a part likely to migrate should not pre-claim it.
func (b *HybridLevelBuilder) ReservePart(i, verts, groups int) {
	if b.headroom <= 0 {
		return
	}
	if verts > maxHybridReserve {
		verts = maxHybridReserve
	}
	if perPart := int(b.headroom / int64(4*len(b.parts)) * 2); verts > perPart {
		verts = perPart
	}
	bytes := int64(verts)*4 + int64(groups)*4
	if b.reserved+bytes > b.headroom {
		return
	}
	b.reserved += bytes
	p := &b.parts[i]
	if p.verts == nil {
		p.verts = poolGetU32() // a pooled buffer may already cover the reserve
	}
	if p.counts == nil {
		p.counts = poolGetU32()
	}
	if verts > cap(p.verts) {
		s := make([]uint32, len(p.verts), verts)
		copy(s, p.verts)
		p.verts = s
	}
	if groups > cap(p.counts) {
		s := make([]uint32, len(p.counts), groups)
		copy(s, p.counts)
		p.counts = s
	}
}

// maxHybridReserve caps a single part's pre-sized capacity (in units) so a
// wildly overestimated fan-out cannot balloon resident memory.
const maxHybridReserve = 1 << 27

// NextGroup hands the producer the buffer the next parent embedding's
// children are appended to; CommitGroup takes the grown buffer back. Each
// child is written once, straight into the part: a part in memory hands out
// its own verts array, a migrated one a per-part scratch that CommitGroup
// encodes. The owner switches a part to disk only here, with no buffer out,
// and a migration by the governor drains only the groups already charged
// and leaves the arrays to the owner — so no migration recycles the buffer
// a producer is still writing. The caller must not keep the buffer past
// CommitGroup.
func (p *hybridPartWriter) NextGroup() ([]uint32, error) {
	if p.b.queue.Failed() {
		// The write-behind queue hit a hard error (ENOSPC, retries
		// exhausted): fail the chunk worker promptly instead of finishing
		// the whole expansion into a queue that discards everything.
		return nil, p.b.queue.Err()
	}
	if !p.onDisk && p.spillReq.Load() {
		if err := p.migrate(true); err != nil {
			return nil, err
		}
	}
	if p.onDisk {
		if p.scratch == nil {
			p.scratch = poolGetU32()
		}
		return p.scratch[:0], nil
	}
	if p.verts == nil {
		p.verts = poolGetU32()
	}
	if p.counts == nil {
		p.counts = poolGetU32()
	}
	return p.verts, nil
}

// CommitGroup records the group NextGroup handed out: buf is that buffer
// with the group's children appended. A part in memory charges the governor
// once its uncharged bytes reach the build's slab, or at every group while
// its last charge found the scope pressed.
func (p *hybridPartWriter) CommitGroup(buf []uint32) {
	if p.onDisk {
		p.scratch = buf
		p.dw.appendGroup(buf)
		return
	}
	n := len(buf) - len(p.verts)
	p.verts = buf
	p.counts = append(p.counts, uint32(n))
	// Account the part's eventual resident size: the 4-byte counts become
	// 8-byte global bounds at Finish, so a group costs 8 bytes for good.
	p.uncharged += int64(n)*4 + 8
	if p.uncharged >= p.b.gov.slab || p.pressed {
		p.charge()
	}
}

// charge hands the part's uncharged bytes to the governor, and shows the
// groups they complete to a goroutine that may migrate the part meanwhile.
// Owner only.
func (p *hybridPartWriter) charge() {
	if n := p.uncharged; n != 0 {
		p.uncharged = 0
		p.mu.Lock()
		if !p.migrated {
			p.shownVerts, p.shownCounts = p.verts, p.counts
		}
		p.bytes.Add(n)
		p.mu.Unlock()
		p.pressed = p.b.gov.noteAlloc(n)
	}
}

// migrate drains the part's memory data to freshly created part files
// through the write queue. Its owner (owner set) drains everything and
// switches the part to disk appends. Any other goroutine drains the groups
// shown at the owner's last charge and frees their bytes, so a marked part
// whose owner has not reached its next append stops holding the budget; the
// owner then drains the rest, and the memory arrays stay its own until it
// has flushed the part.
func (p *hybridPartWriter) migrate(owner bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.b
	if !p.migrated {
		if err := b.fs.MkdirAll(b.dir); err != nil {
			return wrapIO("mkdir", b.dir, err)
		}
		vf, cf, err := openFilePair(b.fs,
			filepath.Join(b.dir, fmt.Sprintf("L%d.p%d.vert", b.level, p.idx)),
			filepath.Join(b.dir, fmt.Sprintf("L%d.p%d.cnt", b.level, p.idx)))
		if err != nil {
			return err
		}
		p.dw = newDiskPartWriter(b.queue, vf, cf)
		// Bulk-drain the shown arrays (no per-group bookkeeping — this runs
		// on the critical path of whichever worker triggered the
		// migration): full codec blocks are sealed, the partial tails stay
		// open in the writer, so later appends extend the same blocks.
		p.dw.appendVerts(p.shownVerts)
		for _, c := range p.shownCounts {
			p.dw.appendCnt(c)
		}
		// Free what was charged.
		b.gov.noteFree(p.bytes.Swap(0))
		b.gov.pending.Add(-p.claimed)
		p.claimed = 0
		p.migrated = true
	}
	if owner || p.flushed.Load() {
		// The owner is here, or done with the arrays: drain what it
		// appended after the groups shown, and recycle the arrays. Bytes
		// charged since a non-owner migrated the part are freed; the bytes
		// appended since the last charge never were, so they are dropped.
		p.dw.appendVerts(p.verts[len(p.shownVerts):])
		for _, c := range p.counts[len(p.shownCounts):] {
			p.dw.appendCnt(c)
		}
		b.gov.noteFree(p.bytes.Swap(0))
		poolPutU32(p.verts)
		poolPutU32(p.counts)
		p.verts, p.counts, p.shownVerts, p.shownCounts = nil, nil, nil, nil
	}
	if owner {
		p.uncharged = 0
		p.onDisk = true
	}
	if p.flushed.Load() && !p.dwSealed {
		// Migrated after the owner's Flush (governor path): seal now.
		p.dw.flush()
		p.dwSealed = true
	}
	return nil
}

// Flush completes the part. Parts may flush in any order.
func (p *hybridPartWriter) Flush() error {
	// Charge the tail before publishing the flush: from then on the governor
	// may migrate the part, which frees all of its bytes.
	p.charge()
	poolPutU32(p.scratch)
	p.scratch = nil
	p.flushed.Store(true)
	if !p.onDisk && p.spillReq.Load() {
		if err := p.migrate(true); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.migrated && !p.dwSealed {
		p.dw.flush()
		p.dwSealed = true
	}
	return nil
}

// Finish completes the level; every part must have been flushed. It waits
// for the write queue to drain the migrated parts, verifies their files, and
// assembles the HybridLevel in part order — computing the global group end
// boundaries of the memory parts now that every part's base offsets are
// known.
func (b *HybridLevelBuilder) Finish() (*HybridLevel, error) {
	b.gov.releaseInflight()
	if err := b.gov.takeErr(); err != nil {
		b.Abort()
		return nil, err
	}
	anyDisk := false
	for i := range b.parts {
		if b.parts[i].migrated {
			anyDisk = true
		}
	}
	if anyDisk {
		if err := b.queue.Barrier(); err != nil {
			b.Abort()
			return nil, err
		}
	}
	h := &HybridLevel{blockSize: b.blockSize, tracker: b.tracker, fs: b.fs}
	for i := range b.parts {
		p := &b.parts[i]
		hp := hybridPart{vertBase: h.totalVerts, groupBase: h.totalGroups}
		if p.migrated {
			if err := p.dw.verify(); err != nil {
				b.Abort()
				return nil, err
			}
			if b.tracker != nil {
				b.tracker.SpillIO(p.dw.logicalBytes(), p.dw.physBytes())
			}
			hp.vf, hp.cf, hp.chunkCum, hp.comp = p.dw.vf, p.dw.cf, p.dw.chunkCum, p.dw.comp
			hp.numVerts, hp.numGroups = p.dw.numVerts, p.dw.numGroups
		} else {
			hp.verts = p.verts
			p.verts = nil // owned by the level now; recycled at its Close
			hp.numVerts, hp.numGroups = len(hp.verts), len(p.counts)
			hp.bounds = poolGetU64(len(p.counts))
			off := uint64(h.totalVerts)
			for j, c := range p.counts {
				off += uint64(c)
				hp.bounds[j] = off
			}
			poolPutU32(p.counts) // bounds replace the counts; recycle them
			p.counts = nil
		}
		h.parts = append(h.parts, hp)
		h.totalVerts += hp.numVerts
		h.totalGroups += hp.numGroups
	}
	// Keep the part-writer slice for Reset: the builder is pooled across
	// level builds (handed-over buffers were nil'ed above; Reset clears the
	// remaining per-part state).
	b.parts = b.parts[:0]
	return h, nil
}

// Abort discards the partially built level: it closes and removes any
// migrated parts' files and returns the memory parts' buffers to the part
// pool. The builder stays reusable through Reset — a cancelled explorer may
// be driven further.
func (b *HybridLevelBuilder) Abort() error {
	b.gov.releaseInflight()
	var first error
	for i := range b.parts {
		p := &b.parts[i]
		if p.migrated {
			if err := removeFiles(b.fs, p.dw.vf, p.dw.cf); err != nil && first == nil {
				first = err
			}
		}
		poolPutU32(p.verts)
		poolPutU32(p.counts)
		poolPutU32(p.scratch)
		p.verts, p.counts, p.scratch = nil, nil, nil
	}
	b.parts = b.parts[:0]
	return first
}

// openFilePair creates (truncating) a part's vert/cnt file pair, removing
// the vert file again if the cnt open fails. Cleanup failures on that path
// are joined onto the create error instead of being swallowed.
func openFilePair(fs vfs.FS, vname, cname string) (vf, cf vfs.File, err error) {
	fs = vfs.OrOS(fs)
	vf, err = fs.Create(vname)
	if err != nil {
		return nil, nil, wrapIO("create", vname, err)
	}
	cf, err = fs.Create(cname)
	if err != nil {
		return nil, nil, errors.Join(wrapIO("create", cname, err), removeFiles(fs, vf))
	}
	return vf, cf, nil
}

// diskPartWriter encodes one part's groups into codec blocks and streams
// them to the part's vert/cnt files through the write queue, building the
// block directory and sparse cnt index as it goes. It serves the parts a
// build migrates to disk.
type diskPartWriter struct {
	q          *WriteQueue
	vf, cf     vfs.File
	vbuf, cbuf []byte // open (unsubmitted) queue buffers
	numVerts   int
	numGroups  int
	children   uint64 // sum of the counts appended so far
	chunkCum   []uint64
	comp       *partComp

	// The open (not yet sealed) codec blocks and encode scratch.
	vblock, cblock []uint32
	enc, payload   []byte
}

func newDiskPartWriter(q *WriteQueue, vf, cf vfs.File) diskPartWriter {
	return diskPartWriter{q: q, vf: vf, cf: cf, vbuf: q.GetBuf(), cbuf: q.GetBuf(), comp: &partComp{}}
}

// appendGroup appends one group's children and its count.
func (p *diskPartWriter) appendGroup(children []uint32) {
	p.appendVerts(children)
	p.appendCnt(uint32(len(children)))
}

// appendVerts buffers verts into the open codec block, sealing full blocks
// as they fill.
func (p *diskPartWriter) appendVerts(vals []uint32) {
	if p.vblock == nil {
		p.vblock = poolGetU32()
	}
	p.numVerts += len(vals)
	for len(vals) > 0 {
		n := min(codecBlockVals-len(p.vblock), len(vals))
		p.vblock = append(p.vblock, vals[:n]...)
		vals = vals[n:]
		if len(p.vblock) == codecBlockVals {
			p.sealVertBlock()
		}
	}
}

// appendCnt buffers one group's child count into the open codec block. Every
// cnt block opens a sparse-index entry (codecBlockVals equals CntChunk).
func (p *diskPartWriter) appendCnt(v uint32) {
	if p.cblock == nil {
		p.cblock = poolGetU32()
	}
	if len(p.cblock) == 0 {
		p.chunkCum = append(p.chunkCum, p.children)
	}
	p.cblock = append(p.cblock, v)
	p.children += uint64(v)
	p.numGroups++
	if len(p.cblock) == codecBlockVals {
		p.sealCntBlock()
	}
}

// sealVertBlock encodes the writer's open vert block, records its physical
// offset in the directory, and hands the bytes to the write queue. Encoding
// runs here, on the worker that produced the values: the block is still
// cache-hot, and with t workers the codec throughput scales with the
// expansion instead of serializing on the queue's I/O goroutine.
func (p *diskPartWriter) sealVertBlock() {
	p.comp.vOffs = append(p.comp.vOffs, p.comp.physVerts)
	p.enc = appendVertBlock(p.enc[:0], p.vblock, &p.payload)
	p.comp.physVerts += int64(len(p.enc))
	p.vbuf = appendQueueBytes(p.q, p.vf, p.vbuf, p.enc)
	p.vblock = p.vblock[:0]
}

// sealCntBlock is sealVertBlock for the cnt file.
func (p *diskPartWriter) sealCntBlock() {
	p.comp.cOffs = append(p.comp.cOffs, p.comp.physCnts)
	p.enc = appendCntBlock(p.enc[:0], p.cblock, &p.payload)
	p.comp.physCnts += int64(len(p.enc))
	p.cbuf = appendQueueBytes(p.q, p.cf, p.cbuf, p.enc)
	p.cblock = p.cblock[:0]
}

// appendQueueBytes copies data into the open queue buffer, submitting and
// replacing it as it fills.
func appendQueueBytes(q *WriteQueue, f vfs.File, buf, data []byte) []byte {
	for len(data) > 0 {
		space := cap(buf) - len(buf)
		if space == 0 {
			q.Submit(f, buf)
			buf = q.GetBuf()
			continue
		}
		n := min(space, len(data))
		buf = append(buf, data[:n]...)
		data = data[n:]
	}
	return buf
}

// flush seals the partial tail blocks — the part is done growing — and
// submits the open queue buffers.
func (p *diskPartWriter) flush() {
	if len(p.vblock) > 0 {
		p.sealVertBlock()
	}
	if len(p.cblock) > 0 {
		p.sealCntBlock()
	}
	poolPutU32(p.vblock)
	poolPutU32(p.cblock)
	p.vblock, p.cblock = nil, nil
	p.q.Submit(p.vf, p.vbuf)
	p.q.Submit(p.cf, p.cbuf)
	p.vbuf, p.cbuf = nil, nil
}

// logicalBytes is the raw word size of what the part wrote: 4 bytes per vert
// and per group, whatever the blocks compress to.
func (p *diskPartWriter) logicalBytes() int64 { return int64(4 * (p.numVerts + p.numGroups)) }

// physBytes reports the bytes the part occupies on disk.
func (p *diskPartWriter) physBytes() int64 { return p.comp.physVerts + p.comp.physCnts }

// verify checks, once the queue has drained, that the directory accounts for
// every value the part took in (an unflushed part still holds its tail
// blocks open) and that the files hold exactly the bytes the directory
// recorded — the check level assembly runs before installing files.
func (p *diskPartWriter) verify() error {
	blocks := func(n int) int { return (n + codecBlockVals - 1) / codecBlockVals }
	if len(p.comp.vOffs) != blocks(p.numVerts) || len(p.comp.cOffs) != blocks(p.numGroups) {
		return fmt.Errorf("storage: part %s was not flushed: %d/%d blocks sealed for %d verts, %d groups",
			p.vf.Name(), len(p.comp.vOffs), len(p.comp.cOffs), p.numVerts, p.numGroups)
	}
	for _, chk := range []struct {
		f    vfs.File
		want int64
	}{{p.vf, p.comp.physVerts}, {p.cf, p.comp.physCnts}} {
		size, err := chk.f.Size()
		if err != nil {
			return wrapIO("stat", chk.f.Name(), err)
		}
		if size != chk.want {
			return corruptAt(chk.f.Name(), 0, fmt.Errorf("file has %d bytes, want %d", size, chk.want))
		}
	}
	return nil
}
