package micro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"vulnstack/internal/isa"
)

// This file is the canonical machine-state codec behind the delta
// checkpoint chain (internal/ckpt). The contract is exact:
//
//	EncodeState(a) bytes-equal EncodeState(b)  ⟺  a.StateEqual(b)
//
// so the chain's chunk-wise blob comparison IS the convergence test,
// and DecodeState(EncodeState(c)) reproduces a core that is StateEqual
// to c and behaves identically (RAM excluded — the chain restores it
// separately, page-wise).
//
// Canonicality is why the encoding normalizes exactly the two spots
// where StateEqual admits representational slack: a cache line's nil
// taint slice encodes as all-zero mask bytes (taintSliceEqual treats
// them as equal), and the RAM taint map encodes as its nonzero entries
// in ascending address order (taintsEqual treats absent as zero).
// Everything StateEqual excludes — RAM contents, the measurement-only
// c.Taint, the decode memo, OnCommit — is excluded here too.
//
// Layout: all fixed-size sections (scalars, register files, ROB/LSQ
// arrays, branch predictor, caches) come first so their byte offsets
// are identical across checkpoints — delta chunking then stores only
// genuinely changed state — and the variable-length sections (free
// list, issue/fetch queues, completion ring, RAM taints, device state)
// trail.

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func appendI(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// statePCOffset is the byte offset of fetchPC in an EncodeState blob:
// Cycle, Instret, KInstr, seq and mode precede it, 8 bytes each.
const statePCOffset = 5 * 8

// StatePC extracts the fetch PC from an EncodeState blob without
// decoding the rest: the program point a checkpoint restores to, used
// as the governing address for static features (e.g. liveness buckets
// in stratified sampling). ok=false on a blob too short to hold it.
func StatePC(blob []byte) (uint64, bool) {
	if len(blob) < statePCOffset+8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(blob[statePCOffset:]), true
}

// EncodeState appends the canonical encoding of the core's
// StateEqual-relevant state to dst and returns the result.
func (c *Core) EncodeState(dst []byte) []byte {
	dst = c.appendHead(dst)
	for _, ch := range c.caches() {
		dst = ch.appendState(dst)
	}
	return c.appendTail(dst)
}

// caches returns the cache levels in EncodeState's section order.
func (c *Core) caches() [3]*cache { return [3]*cache{c.l1i, c.l1d, c.l2} }

// appendTail emits the variable-length sections that follow the
// caches: free list, issue and fetch queues, completion ring, RAM
// taints and device state.
func (c *Core) appendTail(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.freeList)))
	for _, v := range c.freeList {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.iq)))
	for _, v := range c.iq {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.fq)))
	for i := range c.fq {
		dst = appendFetch(dst, &c.fq[i])
	}
	for _, bucket := range c.ring {
		dst = binary.AppendUvarint(dst, uint64(len(bucket)))
		for _, e := range bucket {
			dst = binary.AppendUvarint(dst, uint64(e.idx))
			dst = binary.AppendUvarint(dst, e.seq)
		}
	}
	dst = appendTaints(dst, c.ram.taints)
	return c.Bus.AppendDevice(dst)
}

// appendHead emits the fixed-size sections that precede the caches:
// scalars, register files, ROB/LSQ arrays and the branch predictor.
// Its length depends only on the Config.
func (c *Core) appendHead(dst []byte) []byte {
	dst = appendU64(dst, c.Cycle)
	dst = appendU64(dst, c.Instret)
	dst = appendU64(dst, c.KInstr)
	dst = appendU64(dst, c.seq)
	dst = appendI(dst, int(c.mode))
	dst = appendU64(dst, c.fetchPC)
	dst = appendBool(dst, c.fetchStall)
	for _, v := range []int{c.robHead, c.robTail, c.robCount, c.lqH, c.lqT, c.lqN, c.sqH, c.sqT, c.sqN} {
		dst = appendI(dst, v)
	}
	for _, v := range c.csr {
		dst = appendU64(dst, v)
	}
	for _, v := range c.retRAT {
		dst = appendI(dst, v)
	}
	for _, v := range c.frontRAT {
		dst = appendI(dst, v)
	}
	for _, v := range c.prf {
		dst = appendU64(dst, v)
	}
	for _, v := range c.prfReady {
		dst = appendBool(dst, v)
	}
	for _, v := range c.prfTaint {
		dst = appendBool(dst, v)
	}
	for i := range c.rob {
		dst = appendRobe(dst, &c.rob[i])
	}
	for i := range c.lq {
		dst = appendLSQ(dst, &c.lq[i])
	}
	for i := range c.sq {
		dst = appendLSQ(dst, &c.sq[i])
	}
	return c.bp.appendState(dst)
}

func appendRobe(dst []byte, r *robe) []byte {
	dst = appendBool(dst, r.valid)
	dst = appendU64(dst, r.seq)
	dst = appendInstr(dst, &r.in)
	dst = appendU64(dst, r.pc)
	dst = appendU64(dst, r.npc)
	dst = appendI(dst, int(r.mode))
	dst = appendBool(dst, r.hasExc)
	dst = appendU64(dst, r.excCause)
	dst = appendU64(dst, r.excVal)
	dst = appendI(dst, r.archRd)
	dst = appendI(dst, r.newPhys)
	dst = appendI(dst, r.oldPhys)
	dst = appendI(dst, r.src1)
	dst = appendI(dst, r.src2)
	dst = appendBool(dst, r.issued)
	dst = appendBool(dst, r.executed)
	dst = appendU64(dst, r.result)
	dst = appendBool(dst, r.isLoad)
	dst = appendBool(dst, r.isStore)
	dst = appendI(dst, r.lsq)
	dst = appendBool(dst, r.serialize)
	dst = appendU64(dst, r.actualNext)
	dst = appendBool(dst, r.isCtl)
	dst = appendBool(dst, r.tainted)
	dst = appendBool(dst, r.fetchTaint)
	dst = appendBool(dst, r.fetchWI)
	dst = appendBool(dst, r.lsqAddrT)
	dst = appendBool(dst, r.lsqDataT)
	dst = appendBool(dst, r.storeDataT)
	dst = appendU64(dst, r.doneCycle)
	return appendBool(dst, r.inFlight)
}

func appendLSQ(dst []byte, e *lsqEntry) []byte {
	dst = appendBool(dst, e.valid)
	dst = appendU64(dst, e.seq)
	dst = appendI(dst, e.rob)
	dst = appendBool(dst, e.isStore)
	dst = appendU64(dst, e.addr)
	dst = appendBool(dst, e.addrOK)
	dst = appendU64(dst, e.data)
	dst = appendBool(dst, e.dataOK)
	dst = appendI(dst, e.size)
	dst = appendBool(dst, e.addrTaint)
	dst = appendBool(dst, e.dataTaint)
	return appendBool(dst, e.dataSrcTaint)
}

func appendFetch(dst []byte, f *fetchEntry) []byte {
	dst = appendU64(dst, f.pc)
	dst = appendU64(dst, f.npc)
	dst = binary.LittleEndian.AppendUint32(dst, f.word)
	dst = appendInstr(dst, &f.in)
	dst = appendBool(dst, f.ok)
	dst = appendBool(dst, f.fetchExc)
	dst = appendU64(dst, f.excCause)
	dst = appendU64(dst, f.ready)
	dst = appendBool(dst, f.fetchTaint)
	return appendBool(dst, f.fetchWI)
}

func appendInstr(dst []byte, in *isa.Instr) []byte {
	dst = appendI(dst, int(in.Op))
	dst = appendI(dst, in.Rd)
	dst = appendI(dst, in.Rs1)
	dst = appendI(dst, in.Rs2)
	dst = appendU64(dst, uint64(in.Imm))
	return binary.LittleEndian.AppendUint32(dst, in.Raw)
}

func (bp *branchPred) appendState(dst []byte) []byte {
	dst = appendI(dst, bp.rasTop)
	dst = append(dst, bp.counters...)
	for _, v := range bp.btbTag {
		dst = appendU64(dst, v)
	}
	for _, v := range bp.btbTgt {
		dst = appendU64(dst, v)
	}
	for _, v := range bp.ras {
		dst = appendU64(dst, v)
	}
	return dst
}

// A cache section is the 8-byte LRU tick, then one fixed-size record
// per line in entry order (set-major, as StructDims numbers lines),
// then the data backing. A line record is lineHeadBytes of valid,
// dirty, tag and LRU stamp, then the line's taint mask; valid is the
// record's first byte.
const lineHeadBytes = 1 + 1 + 8 + 8

// lineRecBytes is the size of one line record in a cache section.
func (c *cache) lineRecBytes() int { return lineHeadBytes + c.cfg.LineBytes }

// stateBytes is the length of the cache section appendState emits.
func (c *cache) stateBytes() int { return 8 + c.cfg.Lines()*c.lineRecBytes() + len(c.backing) }

func (c *cache) appendState(dst []byte) []byte {
	dst = appendU64(dst, uint64(c.tick))
	for si := range c.sets {
		dst = c.appendSetRecords(dst, si)
	}
	return append(dst, c.backing...)
}

// appendSetRecords emits the line records of one set.
func (c *cache) appendSetRecords(dst []byte, set int) []byte {
	for wi := range c.sets[set] {
		l := &c.sets[set][wi]
		dst = appendBool(dst, l.valid)
		dst = appendBool(dst, l.dirty)
		dst = appendU64(dst, l.tag)
		dst = appendU64(dst, uint64(l.lru))
		// nil taint ≡ all-zero: always emit the full mask so the
		// encoding is canonical.
		if l.taint == nil {
			dst = append(dst, zeroLine(c.cfg.LineBytes)...)
		} else {
			dst = append(dst, l.taint...)
		}
	}
	return dst
}

// setData is the slice of the data backing holding one set's lines.
func (c *cache) setData(set int) []byte {
	n := c.cfg.Assoc * c.cfg.LineBytes
	return c.backing[set*n : (set+1)*n]
}

// Layout is the byte layout of one Config's EncodeState blobs: the
// fixed-size head, the three cache sections and the offset of the
// variable-length tail. The offsets come from the codec: the head is
// measured by encoding it, and each cache section's length is the one
// appendState emits. It is the one offset table behind every reader
// that looks into a blob without decoding it whole: the campaign's
// dead-line pre-check reads line valid flags through it, and the delta
// restore and compare map checkpoint chunks to cache sets through it.
type Layout struct {
	// tail is the blob offset of the variable-length tail.
	tail int
	// cache locates the L1i, L1d and L2 sections, in blob order.
	cache [3]cacheLayout
}

// cacheLayout locates one cache section. A set's line records and its
// data are two contiguous byte ranges, one in each region.
type cacheLayout struct {
	off              int // section offset: the LRU tick
	rec              int // line record bytes
	assoc, lineBytes int
	lines            int
}

func (l *cacheLayout) sets() int     { return l.lines / l.assoc }
func (l *cacheLayout) recs() int     { return l.off + 8 }
func (l *cacheLayout) setRecs() int  { return l.assoc * l.rec }
func (l *cacheLayout) data() int     { return l.recs() + l.lines*l.rec }
func (l *cacheLayout) setBytes() int { return l.assoc * l.lineBytes }

// setRanges returns the two half-open ranges of sets whose line
// records (first) or data (second) overlap blob bytes [lo, hi).
func (l *cacheLayout) setRanges(lo, hi int) [2][2]int {
	span := func(base, size int) [2]int {
		a, b := max(lo, base), min(hi, base+l.sets()*size)
		if a >= b {
			return [2]int{}
		}
		return [2]int{(a - base) / size, (b-1-base)/size + 1}
	}
	return [2][2]int{span(l.recs(), l.setRecs()), span(l.data(), l.setBytes())}
}

// Layout returns the blob layout of this core's Config.
func (c *Core) Layout() *Layout {
	if c.layout != nil {
		return c.layout
	}
	x := &Layout{}
	off := len(c.appendHead(nil))
	for k, ch := range c.caches() {
		x.cache[k] = cacheLayout{off: off, rec: ch.lineRecBytes(), assoc: ch.cfg.Assoc,
			lineBytes: ch.cfg.LineBytes, lines: ch.cfg.Lines()}
		off += ch.stateBytes()
	}
	x.tail = off
	c.layout = x
	return x
}

// cacheOf maps a cache structure to its section; nil for the others.
// StructL1I..StructL2 are numbered in blob order.
func (x *Layout) cacheOf(s Structure) *cacheLayout {
	if s < StructL1I || s > StructL2 {
		return nil
	}
	return &x.cache[s-StructL1I]
}

// Lines returns the line count of cache structure s (0 for the
// non-cache structures).
func (x *Layout) Lines(s Structure) int {
	if l := x.cacheOf(s); l != nil {
		return l.lines
	}
	return 0
}

// LineValid reports the valid flag of line `line` (StructDims entry
// numbering) of cache structure s in an EncodeState blob. ok is false
// for a non-cache structure, an out-of-range line or a blob too short
// to hold the flag.
func (x *Layout) LineValid(blob []byte, s Structure, line int) (valid, ok bool) {
	l := x.cacheOf(s)
	if l == nil || line < 0 || line >= l.lines {
		return false, false
	}
	at := l.recs() + line*l.rec
	if at >= len(blob) {
		return false, false
	}
	return blob[at] != 0, true
}

// ChunkSets returns how many cache sets have line records or data in
// blob bytes [lo, hi), counting a set once per region: the most a
// delta restore or compare reads on account of a chunk spanning them.
func (x *Layout) ChunkSets(lo, hi int) int {
	n := 0
	for k := range x.cache {
		for _, r := range x.cache[k].setRanges(lo, hi) {
			n += r[1] - r[0]
		}
	}
	return n
}

// appendTaints emits the RAM taint map canonically: nonzero entries
// only, ascending address order.
func appendTaints(dst []byte, taints map[uint64]taintMask) []byte {
	keys := make([]uint64, 0, len(taints))
	//lint:ordered keys are collected then sorted; order-free
	for k, v := range taints {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, k)
		dst = append(dst, byte(taints[k]))
	}
	return dst
}

// StateProbe folds the cheap scalar slice of the state into one word:
// the first-stage convergence gate. A faulty run whose probe differs
// from the golden checkpoint's cannot be StateEqual, so the expensive
// full encode-and-compare only runs on a probe match.
func (c *Core) StateProbe() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(c.Cycle)
	mix(c.Instret)
	mix(c.KInstr)
	mix(c.seq)
	mix(uint64(c.mode))
	mix(c.fetchPC)
	if c.fetchStall {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(c.robHead)<<32 | uint64(uint32(c.robCount)))
	mix(uint64(c.lqN)<<32 | uint64(uint32(c.sqN)))
	mix(uint64(len(c.fq))<<32 | uint64(uint32(len(c.iq))))
	for _, v := range c.csr {
		mix(v)
	}
	for i := range c.retRAT {
		mix(uint64(int64(c.retRAT[i]))*31 + uint64(int64(c.frontRAT[i])))
	}
	for _, v := range c.prf {
		mix(v)
	}
	return h
}

// stateReader decodes an EncodeState blob with sticky error handling.
type stateReader struct {
	b   []byte
	bad bool
}

func (r *stateReader) u64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *stateReader) i() int { return int(int64(r.u64())) }

func (r *stateReader) u32() uint32 {
	if r.bad || len(r.b) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *stateReader) bool() bool {
	if r.bad || len(r.b) < 1 {
		r.bad = true
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

func (r *stateReader) uv() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) bytes(n int) []byte {
	if r.bad || n < 0 || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// DecodeState restores the core from an EncodeState blob, reusing the
// core's allocations. The core must have the geometry the blob was
// captured with (same Config). RAM contents are not touched — the
// chain restores them page-wise — and the decode memo survives
// (entries are word-tagged and can never go stale), while OnCommit and
// the measurement taint state reset. Every cache set is read, so the
// core equals the blob everywhere and no set stays marked dirty.
func (c *Core) DecodeState(blob []byte) error {
	r := &stateReader{b: blob}
	c.readHead(r)
	for _, ch := range c.caches() {
		ch.readState(r)
	}
	return c.readTail(r)
}

// DirtySets returns how many cache sets the core has written since its
// last DecodeState or DecodeDelta.
func (c *Core) DirtySets() int {
	n := 0
	for _, ch := range c.caches() {
		n += len(ch.dirty.list)
	}
	return n
}

// DecodeDelta restores the core from blob like DecodeState, reading
// the head and tail in full but only the cache sets that can differ.
// It requires that the core equal the blob it was last restored from
// everywhere off its dirty sets, and that blob differ from that one
// only inside the listed chunks (chunk k is blob bytes
// [k*chunkBytes, (k+1)*chunkBytes)). It re-reads the dirty sets and
// the sets under the chunks, and returns how many sets it read.
func (c *Core) DecodeDelta(blob []byte, chunks []int32, chunkBytes int) (int, error) {
	x := c.Layout()
	if len(blob) < x.tail {
		return 0, fmt.Errorf("micro: truncated state blob")
	}
	c.readHead(&stateReader{b: blob})
	read := 0
	for k, ch := range c.caches() {
		l := &x.cache[k]
		ch.tick = int64(binary.LittleEndian.Uint64(blob[l.off:]))
		for _, ck := range chunks {
			lo := int(ck) * chunkBytes
			for _, r := range l.setRanges(lo, lo+chunkBytes) {
				for s := r[0]; s < r[1]; s++ {
					ch.dirty.mark(s)
				}
			}
		}
		for _, s := range ch.dirty.list {
			at := l.recs() + int(s)*l.setRecs()
			ch.readSetRecords(&stateReader{b: blob[at : at+l.setRecs()]}, int(s))
			copy(ch.setData(int(s)), blob[l.data()+int(s)*l.setBytes():])
		}
		read += len(ch.dirty.list)
		ch.dirty.reset()
	}
	return read, c.readTail(&stateReader{b: blob[x.tail:]})
}

// EqualDelta reports whether the core's EncodeState bytes equal a
// reference blob of refLen bytes, where ref(off, b) reports whether
// the reference holds b at offset off. It requires that the core equal
// the blob it was last restored from everywhere off its dirty sets,
// and that the reference differ from that blob only inside the listed
// chunks; every other cache set then matches on both sides. It checks
// the cheapest parts first and stops at the first mismatch: the head
// and the LRU ticks, the dirty sets (where a fault's residue lives),
// the remaining sets under the chunks, then the tail. It returns the
// verdict and how many cache sets it compared.
func (c *Core) EqualDelta(refLen int, ref func(off int, b []byte) bool, chunks []int32, chunkBytes int) (bool, int) {
	x := c.Layout()
	buf := c.appendHead(c.scratch[:0])
	defer func() { c.scratch = buf[:0] }()
	if !ref(0, buf) {
		return false, 0
	}
	for k, ch := range c.caches() {
		buf = appendU64(buf[:0], uint64(ch.tick))
		if !ref(x.cache[k].off, buf) {
			return false, 0
		}
	}
	cmp := 0
	setEqual := func(ch *cache, l *cacheLayout, s int) bool {
		cmp++
		buf = ch.appendSetRecords(buf[:0], s)
		return ref(l.recs()+s*l.setRecs(), buf) && ref(l.data()+s*l.setBytes(), ch.setData(s))
	}
	for k, ch := range c.caches() {
		for _, s := range ch.dirty.list {
			if !setEqual(ch, &x.cache[k], int(s)) {
				return false, cmp
			}
		}
	}
	for k, ch := range c.caches() {
		l := &x.cache[k]
		eq := true
	walk:
		for _, ck := range chunks {
			lo := int(ck) * chunkBytes
			for _, r := range l.setRanges(lo, lo+chunkBytes) {
				for s := r[0]; s < r[1]; s++ {
					if ch.dirty.has(s) || ch.seen.has(s) {
						continue
					}
					ch.seen.mark(s)
					if eq = setEqual(ch, l, s); !eq {
						break walk
					}
				}
			}
		}
		ch.seen.reset()
		if !eq {
			return false, cmp
		}
	}
	buf = c.appendTail(buf[:0])
	return x.tail+len(buf) == refLen && ref(x.tail, buf), cmp
}

// readHead decodes the fixed-size head: scalars, register files,
// ROB/LSQ arrays and the branch predictor.
func (c *Core) readHead(r *stateReader) {
	c.Cycle = r.u64()
	c.Instret = r.u64()
	c.KInstr = r.u64()
	c.seq = r.u64()
	c.mode = isa.Mode(r.i())
	c.fetchPC = r.u64()
	c.fetchStall = r.bool()
	c.robHead, c.robTail, c.robCount = r.i(), r.i(), r.i()
	c.lqH, c.lqT, c.lqN = r.i(), r.i(), r.i()
	c.sqH, c.sqT, c.sqN = r.i(), r.i(), r.i()
	for i := range c.csr {
		c.csr[i] = r.u64()
	}
	for i := range c.retRAT {
		c.retRAT[i] = r.i()
	}
	for i := range c.frontRAT {
		c.frontRAT[i] = r.i()
	}
	for i := range c.prf {
		c.prf[i] = r.u64()
	}
	for i := range c.prfReady {
		c.prfReady[i] = r.bool()
	}
	for i := range c.prfTaint {
		c.prfTaint[i] = r.bool()
	}
	for i := range c.rob {
		readRobe(r, &c.rob[i])
	}
	for i := range c.lq {
		readLSQ(r, &c.lq[i])
	}
	for i := range c.sq {
		readLSQ(r, &c.sq[i])
	}
	c.bp.readState(r)
}

// readTail decodes the variable-length tail, which must end the blob,
// and resets the measurement-only state.
func (c *Core) readTail(r *stateReader) error {
	n := int(r.uv())
	if n < 0 || n > 4*len(c.prf)+64 {
		return fmt.Errorf("micro: state blob free-list length %d", n)
	}
	c.freeList = c.freeList[:0]
	for i := 0; i < n; i++ {
		c.freeList = append(c.freeList, int(r.uv()))
	}
	n = int(r.uv())
	if n < 0 || n > 4*len(c.rob)+64 {
		return fmt.Errorf("micro: state blob issue-queue length %d", n)
	}
	c.iq = c.iq[:0]
	for i := 0; i < n; i++ {
		c.iq = append(c.iq, int(r.uv()))
	}
	n = int(r.uv())
	if n < 0 || n > 16*c.Cfg.FetchWidth+64 {
		return fmt.Errorf("micro: state blob fetch-queue length %d", n)
	}
	c.fq = c.fq[:0]
	for i := 0; i < n; i++ {
		var f fetchEntry
		readFetch(r, &f)
		c.fq = append(c.fq, f)
	}
	for i := range c.ring {
		k := int(r.uv())
		if k < 0 || k > 4*len(c.rob)+64 {
			return fmt.Errorf("micro: state blob ring bucket length %d", k)
		}
		c.ring[i] = c.ring[i][:0]
		for j := 0; j < k; j++ {
			idx := int(r.uv())
			seq := r.uv()
			c.ring[i] = append(c.ring[i], ringEnt{idx: idx, seq: seq})
		}
	}
	nt := int(r.uv())
	if nt < 0 || nt > len(c.Bus.Mem.Bytes())+64 {
		return fmt.Errorf("micro: state blob taint count %d", nt)
	}
	clear(c.ram.taints)
	for i := 0; i < nt; i++ {
		addr := r.uv()
		m := r.bytes(1)
		if r.bad {
			break
		}
		c.ram.taints[addr] = m[0]
	}
	if r.bad {
		return fmt.Errorf("micro: truncated state blob")
	}
	rest, err := c.Bus.SetDevice(r.b)
	if err != nil {
		return fmt.Errorf("micro: state blob device: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("micro: %d trailing state blob bytes", len(rest))
	}
	c.Taint = taintState{}
	c.OnCommit = nil
	return nil
}

func readRobe(r *stateReader, e *robe) {
	e.valid = r.bool()
	e.seq = r.u64()
	readInstr(r, &e.in)
	e.pc = r.u64()
	e.npc = r.u64()
	e.mode = isa.Mode(r.i())
	e.hasExc = r.bool()
	e.excCause = r.u64()
	e.excVal = r.u64()
	e.archRd = r.i()
	e.newPhys = r.i()
	e.oldPhys = r.i()
	e.src1 = r.i()
	e.src2 = r.i()
	e.issued = r.bool()
	e.executed = r.bool()
	e.result = r.u64()
	e.isLoad = r.bool()
	e.isStore = r.bool()
	e.lsq = r.i()
	e.serialize = r.bool()
	e.actualNext = r.u64()
	e.isCtl = r.bool()
	e.tainted = r.bool()
	e.fetchTaint = r.bool()
	e.fetchWI = r.bool()
	e.lsqAddrT = r.bool()
	e.lsqDataT = r.bool()
	e.storeDataT = r.bool()
	e.doneCycle = r.u64()
	e.inFlight = r.bool()
}

func readLSQ(r *stateReader, e *lsqEntry) {
	e.valid = r.bool()
	e.seq = r.u64()
	e.rob = r.i()
	e.isStore = r.bool()
	e.addr = r.u64()
	e.addrOK = r.bool()
	e.data = r.u64()
	e.dataOK = r.bool()
	e.size = r.i()
	e.addrTaint = r.bool()
	e.dataTaint = r.bool()
	e.dataSrcTaint = r.bool()
}

func readFetch(r *stateReader, f *fetchEntry) {
	f.pc = r.u64()
	f.npc = r.u64()
	f.word = r.u32()
	readInstr(r, &f.in)
	f.ok = r.bool()
	f.fetchExc = r.bool()
	f.excCause = r.u64()
	f.ready = r.u64()
	f.fetchTaint = r.bool()
	f.fetchWI = r.bool()
}

func readInstr(r *stateReader, in *isa.Instr) {
	in.Op = isa.Op(r.i())
	in.Rd = r.i()
	in.Rs1 = r.i()
	in.Rs2 = r.i()
	in.Imm = int64(r.u64())
	in.Raw = r.u32()
}

func (bp *branchPred) readState(r *stateReader) {
	bp.rasTop = r.i()
	copy(bp.counters, r.bytes(len(bp.counters)))
	for i := range bp.btbTag {
		bp.btbTag[i] = r.u64()
	}
	for i := range bp.btbTgt {
		bp.btbTgt[i] = r.u64()
	}
	for i := range bp.ras {
		bp.ras[i] = r.u64()
	}
}

// readState decodes a whole cache section; no set stays marked dirty.
func (c *cache) readState(r *stateReader) {
	c.tick = int64(r.u64())
	for si := range c.sets {
		c.readSetRecords(r, si)
	}
	copy(c.backing, r.bytes(len(c.backing)))
	c.dirty.reset()
}

// readSetRecords decodes the line records of one set.
func (c *cache) readSetRecords(r *stateReader, set int) {
	lb := c.cfg.LineBytes
	for wi := range c.sets[set] {
		l := &c.sets[set][wi]
		l.valid = r.bool()
		l.dirty = r.bool()
		l.tag = r.u64()
		l.lru = int64(r.u64())
		mask := r.bytes(lb)
		if isZeroMask(mask) {
			l.taint = nil
		} else {
			l.taint = append(l.taint[:0], mask...)
		}
	}
}

// zeroLines backs zeroLine: the all-zero taint mask of a clean line.
var zeroLines [256]byte

// zeroLine returns n zero bytes (read-only).
func zeroLine(n int) []byte {
	if n > len(zeroLines) {
		return make([]byte, n)
	}
	return zeroLines[:n:n]
}

// isZeroMask reports whether a taint mask is all zero. The compare
// against a shared zero line runs word-at-a-time.
func isZeroMask(b []byte) bool { return bytes.Equal(b, zeroLine(len(b))) }
