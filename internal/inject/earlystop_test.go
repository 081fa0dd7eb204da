package inject

import (
	"math/rand"
	"testing"

	"vulnstack/internal/asm"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/mem"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestSampleClampDegenerateGolden is the regression for the Int63n
// panic: a golden run of <= 2 cycles leaves no interior cycle, and
// Sample must clamp rather than panic.
func TestSampleClampDegenerateGolden(t *testing.T) {
	for _, cycles := range []uint64{0, 1, 2} {
		cp := &Campaign{Cfg: micro.ConfigA72()}
		cp.Golden.Cycles = cycles
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			f := cp.Sample(r, micro.StructRF)
			if f.Cycle < 1 {
				t.Fatalf("cycles=%d: sampled cycle %d", cycles, f.Cycle)
			}
		}
	}
}

// trivialImage assembles the shortest possible user program: exit(0).
func trivialImage(t *testing.T) *kernel.Image {
	t.Helper()
	b := asm.NewBuilder(isa.VSA64, mem.UserBase)
	b.Label("_start")
	b.Li(isa.RegA0, isa.SysExit)
	b.Li(isa.RegA1, 0)
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

// TestTrivialWorkloadCampaign: an (almost) empty program must survive a
// full campaign — degenerate snapshot spacing, tiny sampling span, and
// the early-stop machinery included.
func TestTrivialWorkloadCampaign(t *testing.T) {
	img := trivialImage(t)
	cp, err := Prepare(img, micro.ConfigA72(), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	tally := cp.RunCampaign(micro.StructRF, 30, 1, nil)
	if tally.N != 30 {
		t.Fatalf("tally N = %d", tally.N)
	}
	total := 0
	for _, c := range tally.Outcomes {
		total += c
	}
	if total != tally.N {
		t.Fatal("outcomes must partition samples")
	}
}

// TestEarlyStopRecordEquivalence: convergence early-stop must change no
// record beyond its provenance flag, and must actually fire.
func TestEarlyStopRecordEquivalence(t *testing.T) {
	cp := shaCampaign(t, micro.ConfigA72(), 8)
	const n, seed = 40, 2021
	on := cp.Records(micro.StructRF, n, 0, seed, nil)
	cp.Reference = true
	off := cp.Records(micro.StructRF, n, 0, seed, nil)
	cp.Reference = false
	if len(on) != len(off) {
		t.Fatalf("record counts differ: %d vs %d", len(on), len(off))
	}
	stopped := 0
	for i := range on {
		if on[i].EarlyStop {
			stopped++
			if on[i].Outcome != results.Outcome(Masked) {
				t.Fatalf("record %d early-stopped with outcome %v", i, on[i].Outcome)
			}
		}
		a := on[i]
		a.EarlyStop = false
		if a != off[i] {
			t.Fatalf("record %d differs beyond provenance:\n on: %+v\noff: %+v", i, on[i], off[i])
		}
	}
	if stopped == 0 {
		t.Error("expected at least one convergence early-stop in 40 RF injections")
	}
	if results.TallyOf(on) != results.TallyOf(off) {
		t.Fatal("tallies differ")
	}
	t.Logf("early-stopped %d/%d injections", stopped, n)
}
