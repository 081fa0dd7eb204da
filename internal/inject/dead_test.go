package inject

import (
	"reflect"
	"testing"

	"vulnstack/internal/ckpt"
	"vulnstack/internal/micro"
	"vulnstack/internal/workload"
)

func benchCampaign(t *testing.T, bench string, cfg micro.Config, snaps int) *Campaign {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Prepare(image(t, spec.Gen(3, 1), cfg), cfg, snaps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// reference runs f on the run-to-completion engine (no convergence
// early-stop, no dead-line pre-check).
func reference(cp *Campaign, f Fault) Record {
	cp.Reference = true
	defer func() { cp.Reference = false }()
	return cp.Run(f).Record()
}

// sameOutcome compares an accelerated record with the reference one;
// EarlyStop is provenance only and may differ.
func sameOutcome(acc, ref Record) bool {
	acc.EarlyStop = false
	return acc == ref
}

// TestDeadCacheRecordEquivalence: on L1i, L1d and L2 of sha and qsort,
// for a VSA32 and a VSA64 configuration, the accelerated engine at one
// and three workers must give the reference engine's records: byte for
// byte on every pre-classified fault, and up to the EarlyStop
// provenance flag on the rest. The pre-check must fire.
func TestDeadCacheRecordEquivalence(t *testing.T) {
	const n, seed = 30, 2021
	for _, bench := range []string{"sha", "qsort"} {
		for _, cfg := range []micro.Config{micro.ConfigA9(), micro.ConfigA72()} {
			cp := benchCampaign(t, bench, cfg, 8)
			for _, st := range cacheStructs {
				pool := cp.Pool(st, n, seed)
				cp.Reference = true
				ref := cp.Records(st, n, 0, seed, nil)
				cp.Reference = false
				pre := 0
				for i, f := range pool {
					if cp.dead(f) {
						pre++
						if ref[i].Outcome != Masked || ref[i].Live {
							t.Fatalf("%s/%s/%v fault %d pre-classified dead, reference %+v", bench, cfg.Name, st, i, ref[i])
						}
					}
				}
				if pre == 0 {
					t.Errorf("%s/%s/%v: no fault of %d pre-classified", bench, cfg.Name, st, n)
				}
				for _, workers := range []int{1, 3} {
					cp.Workers = workers
					acc := cp.Records(st, n, 0, seed, nil)
					for i, f := range pool {
						if cp.dead(f) && acc[i] != ref[i] || !sameOutcome(acc[i], ref[i]) {
							t.Fatalf("%s/%s/%v, %d workers, record %d:\naccelerated %+v\n  reference %+v",
								bench, cfg.Name, st, workers, i, acc[i], ref[i])
						}
					}
				}
				t.Logf("%s/%s/%v: %d/%d pre-classified", bench, cfg.Name, st, pre, n)
			}
		}
	}
}

// TestDeadPredicateEdges walks the pre-check across its boundaries on
// real lines of a real chain, checking each verdict and that Run gives
// the reference record either way.
func TestDeadPredicateEdges(t *testing.T) {
	cp := benchCampaign(t, "sha", micro.ConfigA72(), 8)
	ch := cp.Chain()
	last := ch.Len() - 1
	st := micro.StructL1D
	first := cp.firstValid[st]
	if first == nil {
		t.Fatal("first-valid table empty on a golden chain")
	}
	// never: a line no checkpoint has valid; filled: a line first valid
	// at an interior checkpoint, i.e. filled between two checkpoints.
	never, filled := -1, -1
	for line, j := range first {
		switch {
		case int(j) == ch.Len() && never < 0:
			never = line
		case j >= 1 && int(j) <= last && filled < 0:
			filled = line
		}
	}
	if never < 0 || filled < 0 {
		t.Fatalf("no never-valid (%d) or interior-filled (%d) L1d line", never, filled)
	}
	j := int(first[filled])
	validBit := cp.Cfg.L1D.ValidBit()
	cases := []struct {
		name string
		f    Fault
		dead bool
	}{
		{"on the checkpoint before the fill", Fault{st, filled, 3, ch.Coord(j - 1)}, true},
		{"just after the checkpoint before the fill", Fault{st, filled, 3, ch.Coord(j-1) + 1}, false},
		{"on the checkpoint that first has it valid", Fault{st, filled, 3, ch.Coord(j)}, false},
		{"never-valid line on the last checkpoint", Fault{st, never, 3, ch.Coord(last)}, true},
		{"never-valid line after the last checkpoint", Fault{st, never, 3, ch.Coord(last) + 1}, false},
		{"tag bit of a never-valid line", Fault{st, never, validBit - 1, ch.Coord(1)}, true},
		{"valid bit of a never-valid line", Fault{st, never, validBit, ch.Coord(1)}, false},
		{"dirty bit of a never-valid line", Fault{st, never, validBit + 1, ch.Coord(1)}, true},
	}
	for _, c := range cases {
		if got := cp.dead(c.f); got != c.dead {
			t.Errorf("%s: dead = %v, want %v", c.name, got, c.dead)
		}
		acc, ref := cp.Run(c.f).Record(), reference(cp, c.f)
		if !sameOutcome(acc, ref) {
			t.Errorf("%s:\naccelerated %+v\n  reference %+v", c.name, acc, ref)
		}
		if c.dead && acc != ref {
			t.Errorf("%s: pre-classified record %+v, reference %+v", c.name, acc, ref)
		}
	}
	cp.Reference = true
	if cp.dead(cases[0].f) {
		t.Error("Reference campaign still pre-classifies")
	}
}

// TestDeadWarmMatchesCold: a campaign resumed from the persisted (encoded
// and decoded) chain must build the same first-valid table and give
// the cold campaign's records on every cache structure.
func TestDeadWarmMatchesCold(t *testing.T) {
	cfg := micro.ConfigA9()
	cold := benchCampaign(t, "qsort", cfg, 8)
	ch, err := ckpt.Decode(cold.Chain().Encode())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PrepareFromChain(cold.Img, cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.firstValid, cold.firstValid) {
		t.Fatal("warm first-valid table differs from cold")
	}
	for _, st := range cacheStructs {
		a := cold.Records(st, 40, 0, 9, nil)
		b := warm.Records(st, 40, 0, 9, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: warm records differ from cold", st)
		}
	}
}

// TestFirstValidRejectsInvalidation: a chain in which a line goes from
// valid to invalid must leave the table empty, disabling the pre-check.
func TestFirstValidRejectsInvalidation(t *testing.T) {
	cfg := micro.ConfigA72()
	cp := benchCampaign(t, "sha", cfg, 4)
	boot := micro.New(cfg, cp.Img.NewMemory(), cp.Img.Entry)
	mid := micro.New(cfg, cp.Img.NewMemory(), cp.Img.Entry)
	for mid.Cycle < cp.Golden.Cycles/2 && mid.Step() {
	}
	chain := func(cores ...*micro.Core) *ckpt.Chain {
		ch := ckpt.New(ckpt.Meta{Engine: Engine, Config: cfg.Name, RAMBytes: int(cp.Img.RAM.Size())})
		for i, c := range cores {
			ch.Add(uint64(i), c.StateProbe(), c.Bus.Mem.Bytes(), c.EncodeState(nil), nil)
		}
		ch.Finish()
		return ch
	}
	x := boot.Layout()
	if tab := firstValidLines(chain(boot, mid), x); tab[micro.StructL2] == nil {
		t.Fatal("forward chain gave an empty table")
	}
	for s, first := range firstValidLines(chain(mid, boot), x) {
		if first != nil {
			t.Fatalf("chain with an invalidated line gave a %v table", micro.Structure(s))
		}
	}
}
