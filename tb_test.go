package vulnstack

import (
	"sync/atomic"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestTranslationBlockEquivalenceAllBenchmarks is the acceptance gate
// of the translation-block engine: on every seed benchmark, at both
// layers that execute through it (arch emulator, IR interpreter), for
// one and several workers, the fast path's block-at-a-time dispatch
// must produce tallies bit-identical to the Reference step engines.
// The two systems build their golden chains independently through
// their own engines, so an engine bug cannot corrupt both sides of the
// comparison. It draws its faults from a different seed than
// TestAccelerationEquivalenceAllBenchmarks, so the two gates check
// disjoint samples instead of repeating the same runs.
func TestTranslationBlockEquivalenceAllBenchmarks(t *testing.T) {
	const (
		nArch = 16
		nSoft = 30
		seed  = 2022
	)
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			mk := func(reference bool) *System {
				sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
				if err != nil {
					t.Fatal(err)
				}
				sys.Snapshots = 6
				sys.Reference = reference
				return sys
			}
			fast, ref := mk(false), mk(true)

			layer := func(sys *System, name string, workers int) results.Tally {
				sys.Workers = workers
				switch name {
				case "arch":
					cp, err := sys.ArchCampaign()
					if err != nil {
						t.Fatal(err)
					}
					cp.Workers = workers
					return results.TallyOf(cp.Records(micro.FPMWD, nArch, 0, seed, nil))
				default:
					cp, err := sys.LLFICampaign()
					if err != nil {
						t.Fatal(err)
					}
					cp.Workers = workers
					return results.TallyOf(cp.Records(nSoft, 0, seed, nil))
				}
			}
			for _, name := range []string{"arch", "soft"} {
				want := layer(ref, name, 1)
				for _, workers := range []int{1, 3} {
					if got := layer(fast, name, workers); got != want {
						t.Errorf("%s layer, %d workers: tb tally %+v, Reference %+v",
							name, workers, got, want)
					}
				}
			}
		})
	}
}

// TestTranslationBlockSMCInvalidation drives the code-corruption path
// that makes translation caching unsound if invalidation misses: WI and
// WOI arch faults flip instruction-word bits in memory, exactly where
// predecoded blocks could go stale. The fast campaign runs in Paranoid
// mode — every dispatched op is refetched from memory and compared to
// its predecoded copy, and executing a stale op panics — so this test
// passing means (a) tallies match the Reference step engine and (b) no
// stale block was ever dispatched while the checks were demonstrably
// exercised.
func TestTranslationBlockSMCInvalidation(t *testing.T) {
	const (
		n    = 24
		seed = 99
	)
	for _, fpm := range []micro.FPM{micro.FPMWI, micro.FPMWOI} {
		fpm := fpm
		t.Run(fpm.String(), func(t *testing.T) {
			t.Parallel()
			mk := func(reference bool) *System {
				sys := shaSystem(t)
				sys.Workers = 2
				sys.Snapshots = 6
				sys.Reference = reference
				return sys
			}
			on, off := mk(false), mk(true)
			cpOff, err := off.ArchCampaign()
			if err != nil {
				t.Fatal(err)
			}
			ref := results.TallyOf(cpOff.Records(fpm, n, 0, seed, nil))

			var checks atomic.Uint64
			cpOn, err := on.ArchCampaign()
			if err != nil {
				t.Fatal(err)
			}
			cpOn.TBParanoid = &checks
			got := results.TallyOf(cpOn.Records(fpm, n, 0, seed, nil))
			if got != ref {
				t.Errorf("%v code-corruption tally under tb %+v, step-by-step %+v", fpm, got, ref)
			}
			if checks.Load() == 0 {
				t.Error("paranoid dispatch verified zero ops: the SMC path never ran through the engine")
			}
		})
	}
}

// TestStoreTBProvenanceKeys guards record provenance: measurements made
// on the fast path (translation-block engines) are stamped with a
// distinct store-key Mode, so a Reference campaign over the same store
// can never be served records a different engine produced (and vice
// versa).
func TestStoreTBProvenanceKeys(t *testing.T) {
	st := openStore(t)

	a := storedSystem(t, st)
	if got := a.ArchKey(micro.FPMWD, 7).Mode; got != "tb" {
		t.Fatalf("fast arch key Mode = %q, want \"tb\"", got)
	}
	if got := a.SoftKey(7).Mode; got != "tb" {
		t.Fatalf("fast soft key Mode = %q, want \"tb\"", got)
	}
	if _, err := a.PVF(micro.FPMWD, 12, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SVF(20, 7); err != nil {
		t.Fatal(err)
	}

	b := storedSystem(t, st)
	b.Reference = true
	if got := b.ArchKey(micro.FPMWD, 7).Mode; got != "" {
		t.Fatalf("reference arch key Mode = %q, want \"\"", got)
	}
	if got := b.SoftKey(7).Mode; got != "" {
		t.Fatalf("reference soft key Mode = %q, want \"\"", got)
	}
	// The fast run must not have populated the reference keys.
	for _, k := range []results.Key{b.ArchKey(micro.FPMWD, 7), b.SoftKey(7)} {
		if _, ok, err := st.Manifest(k); err != nil || ok {
			t.Fatalf("manifest for reference key %v: ok=%v err=%v (tb records leaked across engines)", k, ok, err)
		}
	}
	// A reference measurement over the warm store therefore re-injects
	// (builds injectors) instead of replaying the tb records.
	if _, err := b.PVF(micro.FPMWD, 12, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SVF(20, 7); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.archC == nil || b.llfiC == nil {
		t.Fatalf("reference system served from tb manifests without re-injecting (arch=%v llfi=%v)",
			b.archC != nil, b.llfiC != nil)
	}
}
