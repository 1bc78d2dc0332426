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
// each by a single goroutine.
//
// Every part starts in memory; the budget governor watches the total
// resident bytes of the in-flight parts and, when they cross the watermark,
// marks the largest parts for migration. A marked part is drained to disk
// through the WriteQueue (write-behind: the part's accumulated — oldest —
// data goes out, the still-growing parts stay hot in RAM) and keeps
// appending to disk from then on. Parts charge the governor a slab of bytes
// at a time (see governor), so with a watermark the build can never over-run
// the memory budget by more than one part's growth between charges, and a
// level that fits — every level of an unbudgeted run, whose watermark is out
// of reach — stays entirely in memory: each part finishes raw and is handed
// to the level where it was written, with no copy, no filesystem call and no
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
	reserved  int64
}

// NewHybridLevelBuilder creates the level builder of one run; Reset arms it
// for a build. env supplies what the run configured once — the filesystem the
// spill files live on and the tracker — and the remaining arguments are the
// run-scoped resources its explorer owns. dir and the part files in it are
// created lazily, only when a part actually migrates (a build that cannot
// migrate may pass a nil queue), and the files always hold v2 codec blocks. pressure, when non-nil, is an external back-pressure flag
// (e.g. a memtrack high-water callback): while set, the governor spills as if
// the budget were exhausted. A positive pressureLimit tells the governor how
// far the tracker's live bytes have to come down, so it sheds flushed parts
// only as far as the overshoot requires (parts still growing spill
// regardless) and clears the flag once live is back under the limit — a
// transient spike does not condemn the whole level to disk.
func NewHybridLevelBuilder(env *run.Env, dir string, q *WriteQueue, pressure *atomic.Bool, pressureLimit int64) *HybridLevelBuilder {
	b := &HybridLevelBuilder{dir: dir, queue: q, tracker: env.Tracker, fs: vfs.OrOS(env.FS)}
	b.gov.pressure = pressure
	b.gov.pressureLimit = pressureLimit
	b.gov.tracker = env.Tracker
	b.gov.b = b
	return b
}

// Reset arms the builder for a level build of nparts parts, reusing its
// part-writer slice (and, through the part pool, the buffers of levels that
// have since been closed). level names the new level's spill files. memBudget
// is the resident-byte watermark for this build: ≤ 0 sends every part to disk
// immediately (the all-disk regime), math.MaxInt64 is no limit at all (an
// unbudgeted run).
func (b *HybridLevelBuilder) Reset(level, nparts int, memBudget int64) {
	b.level = level
	if cap(b.parts) < nparts {
		b.parts = make([]hybridPartWriter, nparts)
	} else {
		b.parts = b.parts[:nparts]
	}
	b.reserved = 0
	b.gov.reset(memBudget, nparts)
	for i := range b.parts {
		p := &b.parts[i]
		p.b, p.idx = b, i
		p.verts, p.counts = nil, nil
		p.bytes.Store(0)
		// All-disk regime: nothing fits, so skip the pointless memory stay —
		// the first append migrates with an empty replay.
		p.spillReq.Store(memBudget <= 0)
		p.flushed.Store(false)
		p.claimed = 0
		p.uncharged = 0
		p.migrated = false
		p.dwSealed = false
		p.dw = diskPartWriter{}
	}
}

// hybridPartWriter receives one part's groups. Each part is appended by a
// single goroutine; the governor only touches a part after its Flush.
type hybridPartWriter struct {
	b   *HybridLevelBuilder
	idx int

	// Memory stage (owner-only until flushed).
	verts  []uint32
	counts []uint32

	// Placement control.
	bytes     atomic.Int64 // resident bytes charged to the governor
	spillReq  atomic.Bool
	flushed   atomic.Bool
	claimed   int64      // bytes credited to governor.pending at mark time
	uncharged int64      // owner-only: bytes appended since the last charge; 0 once flushed or migrated
	mu        sync.Mutex // guards migration and dw sealing
	migrated  bool
	dwSealed  bool
	dw        diskPartWriter
}

// Part returns the writer of part i of the build's nparts.
func (b *HybridLevelBuilder) Part(i int) *hybridPartWriter { return &b.parts[i] }

// ReservePart pre-grows part i's memory buffers to hold about verts child
// units in groups groups — the pre-sizing that replaces append-doubling
// during cold-start expansion with one up-front allocation. It is a hint, not
// a limit: parts still grow on demand past the reserve. A part's reserve is
// capped at twice its even share of the memory watermark, and reserves stop
// once their sum reaches the watermark — capacity is real resident memory,
// and a part likely to migrate should not pre-claim it.
func (b *HybridLevelBuilder) ReservePart(i, verts, groups int) {
	if b.gov.budget <= 0 {
		return
	}
	if verts > maxHybridReserve {
		verts = maxHybridReserve
	}
	if perPart := int(b.gov.budget / int64(4*len(b.parts)) * 2); verts > perPart {
		verts = perPart
	}
	bytes := int64(verts)*4 + int64(groups)*4
	if b.reserved+bytes > b.gov.budget {
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

// AppendGroup appends the children of the next parent embedding. A part in
// memory charges the governor once its uncharged bytes reach the build's
// slab, or at every group while the external pressure flag is up.
func (p *hybridPartWriter) AppendGroup(children []uint32) error {
	if p.b.queue.Failed() {
		// The write-behind queue hit a hard error (ENOSPC, retries
		// exhausted): fail the chunk worker promptly instead of finishing
		// the whole expansion into a queue that discards everything.
		return p.b.queue.Err()
	}
	// Before Flush only the owner migrates the part, so the plain reads of
	// p.migrated on the owning goroutine are safe.
	if !p.migrated && p.spillReq.Load() {
		if err := p.migrate(); err != nil {
			return err
		}
	}
	if p.migrated {
		p.dw.appendGroup(children)
		return nil
	}
	if p.verts == nil {
		p.verts = poolGetU32()
	}
	if p.counts == nil {
		p.counts = poolGetU32()
	}
	p.verts = append(p.verts, children...)
	p.counts = append(p.counts, uint32(len(children)))
	// Account the part's eventual resident size: the 4-byte counts become
	// 8-byte global bounds at Finish, so a group costs 8 bytes for good.
	p.uncharged += int64(len(children))*4 + 8
	if p.uncharged >= p.b.gov.slab || p.b.gov.pressed() {
		p.charge()
	}
	return nil
}

// charge hands the part's uncharged bytes to the governor. Owner only.
func (p *hybridPartWriter) charge() {
	if n := p.uncharged; n != 0 {
		p.uncharged = 0
		p.bytes.Add(n)
		p.b.gov.noteAlloc(n)
	}
}

// migrate drains the part's accumulated memory data to freshly created part
// files through the write queue and switches the part to disk appends.
func (p *hybridPartWriter) migrate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.migrated {
		return nil
	}
	b := p.b
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
	// Bulk-drain the accumulated arrays (no per-group bookkeeping — this runs
	// on the critical path of whichever worker triggered the migration): full
	// codec blocks are sealed, the partial tails stay open in the writer, so
	// later appends extend the same blocks.
	p.dw.appendVerts(p.verts)
	for _, c := range p.counts {
		p.dw.appendCnt(c)
	}
	poolPutU32(p.verts)
	poolPutU32(p.counts)
	p.verts, p.counts = nil, nil
	// Free what was charged. The bytes the owner appended since its last
	// charge never were, so they are dropped, not freed.
	b.gov.noteFree(p.bytes.Swap(0))
	b.gov.pending.Add(-p.claimed)
	p.claimed, p.uncharged = 0, 0
	p.migrated = true
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
	p.flushed.Store(true)
	if p.spillReq.Load() {
		if err := p.migrate(); err != nil {
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
		p.verts, p.counts = nil, nil
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
// block directory and sparse cnt index as it goes. It serves the migrated
// parts of a build and the restreamed disk parts of an in-place rewrite.
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
// recorded — the check both level assembly and the in-place rewrite run
// before installing files.
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
