package micro

import (
	"bytes"
	"math/rand"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

// smcImage builds a self-modifying program: a two-iteration loop whose
// body instruction is overwritten (addi +1 -> addi +100) during the
// first iteration, then exits with the accumulator as the exit code.
// The decode memo is keyed on the fetched word, so the patched word
// must decode fresh — a stale hit would add 1 twice (exit 2) instead
// of 1 then 100 (exit 101).
func smcImage(t *testing.T) *kernel.Image {
	t.Helper()
	patched := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 100})
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	b.Label("_start")
	b.La(6, "slot")
	b.Li(7, int64(patched))
	b.Li(8, 0)
	b.Li(9, 2)
	b.Label("loop")
	b.Label("slot")
	b.Addi(8, 8, 1) // overwritten with addi x8, x8, 100
	b.Sw(7, 0, 6)
	b.Addi(9, 9, -1)
	b.Bne(9, 0, "loop")
	b.Li(isa.RegA0, isa.SysExit)
	b.Add(isa.RegA1, 8, 0)
	b.Ecall()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(p, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// newPair returns two cores booting img: one with the decode memo, one
// decoding every fetch through isa.Decode, the memo's oracle.
func newPair(img *kernel.Image) (memo, plain *Core) {
	memo = New(ConfigA72(), img.NewMemory(), img.Entry)
	plain = New(ConfigA72(), img.NewMemory(), img.Entry)
	plain.noMemo = true
	return memo, plain
}

// TestMicroDecodeCacheSelfModifying: whatever instruction bytes the
// OoO front end fetches, the memoized decode must match a fresh
// isa.Decode of those bytes — the cached and uncached cores must agree
// cycle for cycle.
func TestMicroDecodeCacheSelfModifying(t *testing.T) {
	on, off := newPair(smcImage(t))
	for _, c := range []*Core{on, off} {
		if !c.Run(1 << 22) {
			t.Fatal("did not halt")
		}
	}
	if on.Bus.Halt != off.Bus.Halt || on.Bus.ExitCode != off.Bus.ExitCode {
		t.Fatalf("decode cache changed the outcome: %v/%d vs %v/%d",
			on.Bus.Halt, on.Bus.ExitCode, off.Bus.Halt, off.Bus.ExitCode)
	}
	if on.Cycle != off.Cycle || on.Instret != off.Instret {
		t.Fatalf("decode cache changed timing: %d/%d cycles, %d/%d instrs",
			on.Cycle, off.Cycle, on.Instret, off.Instret)
	}
	if !on.StateEqual(off) {
		t.Fatal("final core states differ with the decode cache on vs off")
	}
}

// TestDecodeMemoCollisionEviction pins the direct-mapped geometry of
// the memo: PCs 4<<decodeBits bytes apart index the same slot, so
// alternating between two such PCs evicts and re-tags the slot on
// every probe — each probe must still return the fresh isa.Decode of
// its own word, the aliasing pair must occupy exactly one slot between
// them, and a cached illegal-word result must never leak into a later
// legal probe of the same slot.
func TestDecodeMemoCollisionEviction(t *testing.T) {
	img := smcImage(t)
	c := New(ConfigA72(), img.NewMemory(), img.Entry)

	pcA := uint64(mem.UserBase)
	pcB := pcA + 4<<decodeBits
	idx := func(pc uint64) uint64 { return (pc >> 2) & (1<<decodeBits - 1) }
	if idx(pcA) != idx(pcB) {
		t.Fatal("test PCs do not alias one memo slot")
	}
	wa := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 42})
	wb := isa.Encode(isa.Instr{Op: isa.XOR, Rd: 7, Rs1: 8, Rs2: 9})

	check := func(pc uint64, w uint32) {
		t.Helper()
		in, ok := c.decode(pc, w)
		win, wok := isa.Decode(w, c.IS)
		if ok != wok || in != win {
			t.Fatalf("decode(%#x, %#x) = %+v/%v, fresh isa.Decode = %+v/%v",
				pc, w, in, ok, win, wok)
		}
	}
	for i := 0; i < 3; i++ {
		check(pcA, wa)
		check(pcB, wb)
	}
	used := 0
	for i := range c.decodeMemo {
		if c.decodeMemo[i].state != 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("aliasing pair occupies %d memo slots, want 1 (eviction, not accumulation)", used)
	}
	if got := c.decodeMemo[idx(pcB)].word; got != wb {
		t.Fatalf("slot tag %#x after eviction, want last probed word %#x", got, wb)
	}

	const illegal = uint32(0xFFFFFFFF)
	if _, ok := isa.Decode(illegal, c.IS); ok {
		t.Fatalf("%#x unexpectedly decodes; pick a different illegal word", illegal)
	}
	check(pcA, illegal) // caches the negative result
	check(pcA, wa)      // same slot, legal word: must evict, not report illegal
}

// TestDecodeCacheLockstepOnWorkload: cached and uncached cores run a
// real benchmark in lockstep to the same output.
func TestDecodeCacheLockstepOnWorkload(t *testing.T) {
	spec, err := workload.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	on, off := newPair(buildImage(t, spec.Gen(3, 1), isa.VSA64))
	if !on.Run(1<<26) || !off.Run(1<<26) {
		t.Fatal("did not halt")
	}
	if on.Cycle != off.Cycle || !bytes.Equal(on.Bus.Out, off.Bus.Out) {
		t.Fatal("decode cache changed execution on crc32")
	}
	if !on.StateEqual(off) {
		t.Fatal("final states differ")
	}
}

// TestDecodeCacheL1iFlipLockstep: L1i data flips corrupt the very words
// the memo is keyed on, after the memo has warmed on the uncorrupted
// text. Memo and no-memo cores take the same flip at the same cycle and
// must then agree cycle for cycle — committed instructions every cycle,
// and halt, output, fault-propagation class and full state at the end.
func TestDecodeCacheL1iFlipLockstep(t *testing.T) {
	spec, err := workload.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, spec.Gen(3, 1), isa.VSA64)
	golden := New(ConfigA72(), img.NewMemory(), img.Entry)
	if !golden.Run(1 << 26) {
		t.Fatal("golden run did not halt")
	}
	limit := 2*golden.Cycle + 10000
	l1i := ConfigA72().L1I
	r := rand.New(rand.NewSource(7))
	const trials = 12
	contacted := 0
	for i := 0; i < trials; i++ {
		cycle := 1 + uint64(r.Int63n(int64(golden.Cycle-1)))
		on, off := newPair(img)
		on.Run(cycle)
		off.Run(cycle)
		// Flip a data bit of a line holding fetched text: an invalid
		// line's flip is dead and would exercise nothing.
		var valid []int
		for e := 0; e < l1i.Lines(); e++ {
			if on.l1i.sets[e/l1i.Assoc][e%l1i.Assoc].valid {
				valid = append(valid, e)
			}
		}
		if len(valid) == 0 {
			t.Fatalf("trial %d: no valid L1i line at cycle %d", i, cycle)
		}
		entry, bit := valid[r.Intn(len(valid))], r.Intn(8*l1i.LineBytes)
		a, b := on.Inject(StructL1I, entry, bit), off.Inject(StructL1I, entry, bit)
		if a != b {
			t.Fatalf("trial %d: inject info %+v with memo, %+v without", i, a, b)
		}
		if !a.Live {
			t.Fatalf("trial %d: flip into valid line %d is dead", i, entry)
		}
		for on.Cycle < limit {
			hOn, hOff := !on.Step(), !off.Step()
			if hOn != hOff || on.Instret != off.Instret {
				t.Fatalf("trial %d (cycle %d, line %d, bit %d): cores diverge at cycle %d: halted %v/%v, instret %d/%d",
					i, cycle, entry, bit, on.Cycle, hOn, hOff, on.Instret, off.Instret)
			}
			if hOn {
				break
			}
		}
		if on.Bus.Halt != off.Bus.Halt || on.Bus.ExitCode != off.Bus.ExitCode || !bytes.Equal(on.Bus.Out, off.Bus.Out) {
			t.Fatalf("trial %d: outcome differs: %v/%d vs %v/%d", i, on.Bus.Halt, on.Bus.ExitCode, off.Bus.Halt, off.Bus.ExitCode)
		}
		if on.Taint.Contacted() != off.Taint.Contacted() || on.Taint.Class() != off.Taint.Class() {
			t.Fatalf("trial %d: fault propagation differs: %v/%v vs %v/%v",
				i, on.Taint.Contacted(), on.Taint.Class(), off.Taint.Contacted(), off.Taint.Class())
		}
		if !on.StateEqual(off) {
			t.Fatalf("trial %d: final states differ", i)
		}
		if on.Taint.Contacted() {
			contacted++
		}
	}
	if contacted == 0 {
		t.Fatal("no flip reached the pipeline: the corrupted-word path never ran")
	}
	t.Logf("%d/%d flips reached the pipeline", contacted, trials)
}
