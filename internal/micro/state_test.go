package micro

import (
	"bytes"
	"testing"

	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

// midpointCore runs the sha workload to roughly half its golden length
// and returns the core plus the config used.
func midpointCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	spec, err := workload.Get("sha")
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, spec.Gen(3, 1), cfg.ISA)
	golden := New(cfg, img.NewMemory(), img.Entry)
	if !golden.Run(1 << 28) {
		t.Fatal("golden run did not finish")
	}
	core := New(cfg, img.NewMemory(), img.Entry)
	for core.Cycle < golden.Cycle/2 {
		if !core.Step() {
			break
		}
	}
	return core
}

// TestStateCodecRoundTrip: EncodeState/DecodeState must reproduce a
// mid-run core exactly — StateEqual true, identical probe, identical
// re-encoding — and the restored core must finish with the same
// output, cycle count and counters.
func TestStateCodecRoundTrip(t *testing.T) {
	for _, cfg := range []Config{ConfigA72(), ConfigA9()} {
		core := midpointCore(t, cfg)
		blob := core.EncodeState(nil)

		twin := New(cfg, mem.New(core.Bus.Mem.Size()), 0)
		twin.Bus.Mem.CopyFrom(core.Bus.Mem)
		if err := twin.DecodeState(blob); err != nil {
			t.Fatalf("%s: decode: %v", cfg.Name, err)
		}
		if !core.StateEqual(twin) {
			t.Fatalf("%s: restored core not StateEqual to source", cfg.Name)
		}
		if core.StateProbe() != twin.StateProbe() {
			t.Fatalf("%s: probes differ after round trip", cfg.Name)
		}
		if !bytes.Equal(twin.EncodeState(nil), blob) {
			t.Fatalf("%s: re-encoding differs (codec not canonical)", cfg.Name)
		}

		if !core.Run(1<<28) || !twin.Run(1<<28) {
			t.Fatalf("%s: a run did not finish", cfg.Name)
		}
		if core.Cycle != twin.Cycle || core.Instret != twin.Instret ||
			core.KInstr != twin.KInstr ||
			!bytes.Equal(core.Bus.Out, twin.Bus.Out) ||
			core.Bus.ExitCode != twin.Bus.ExitCode {
			t.Fatalf("%s: restored core diverged from source after resume", cfg.Name)
		}
	}
}

// TestStatePC: the cheap fetch-PC peek must agree with the encoded
// core's actual fetch PC, and reject blobs too short to hold it.
func TestStatePC(t *testing.T) {
	cfg := ConfigA72()
	core := midpointCore(t, cfg)
	blob := core.EncodeState(nil)
	pc, ok := StatePC(blob)
	if !ok {
		t.Fatal("StatePC rejected a full state blob")
	}
	if pc != core.fetchPC {
		t.Fatalf("StatePC = %#x, core fetchPC = %#x", pc, core.fetchPC)
	}
	if _, ok := StatePC(blob[:statePCOffset+7]); ok {
		t.Fatal("StatePC accepted a blob too short to hold the PC")
	}
}

// TestStateCodecCanonical: bytes-equality of encodings must track
// StateEqual in both directions — the property the checkpoint chain's
// chunk-wise convergence compare rests on.
func TestStateCodecCanonical(t *testing.T) {
	cfg := ConfigA72()
	core := midpointCore(t, cfg)
	blob := core.EncodeState(nil)

	// Same state → same bytes (even via an independent encode).
	if !bytes.Equal(core.EncodeState(nil), blob) {
		t.Fatal("two encodings of one state differ")
	}
	// Different state → different bytes.
	if !core.Step() {
		t.Fatal("step")
	}
	blob2 := core.EncodeState(nil)
	if bytes.Equal(blob2, blob) {
		t.Fatal("state advanced but encoding unchanged")
	}

	// A truncated blob must error, not mis-restore.
	twin := New(cfg, mem.New(core.Bus.Mem.Size()), 0)
	for _, cut := range []int{0, 10, len(blob) / 2, len(blob) - 1} {
		if err := twin.DecodeState(blob[:cut]); err == nil {
			t.Fatalf("truncated blob (%d bytes) decoded without error", cut)
		}
	}
	// Trailing garbage must error too.
	if err := twin.DecodeState(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Fatal("blob with trailing bytes decoded without error")
	}
}

// TestValidIndexReadsLineFlags: every cache line's valid flag, set to
// a pattern and then to its complement, must read back through the
// Layout from the encoded blob; each cache section must be exactly the
// length the layout assumes, and the tail must start where it says.
func TestValidIndexReadsLineFlags(t *testing.T) {
	for _, cfg := range []Config{ConfigA72(), ConfigA9()} {
		core := midpointCore(t, cfg)
		x := core.Layout()
		if got := len(core.EncodeState(nil)) - len(core.appendTail(nil)); got != x.tail {
			t.Fatalf("%s: tail at %d, layout says %d", cfg.Name, got, x.tail)
		}
		levels := []struct {
			s  Structure
			ch *cache
		}{{StructL1I, core.l1i}, {StructL1D, core.l1d}, {StructL2, core.l2}}
		for _, lv := range levels {
			if got, want := len(lv.ch.appendState(nil)), lv.ch.stateBytes(); got != want {
				t.Fatalf("%s %v: section is %d bytes, stateBytes says %d", cfg.Name, lv.s, got, want)
			}
			if entries, _ := cfg.StructDims(lv.s); x.Lines(lv.s) != entries {
				t.Fatalf("%s %v: %d lines, StructDims says %d", cfg.Name, lv.s, x.Lines(lv.s), entries)
			}
		}
		pattern := func(k, line int) bool { return (line*7+k)%3 == 0 }
		for _, invert := range []bool{false, true} {
			for k, lv := range levels {
				for line := 0; line < x.Lines(lv.s); line++ {
					lv.ch.sets[line/lv.ch.cfg.Assoc][line%lv.ch.cfg.Assoc].valid = pattern(k, line) != invert
				}
			}
			blob := core.EncodeState(nil)
			for k, lv := range levels {
				for line := 0; line < x.Lines(lv.s); line++ {
					v, ok := x.LineValid(blob, lv.s, line)
					if !ok || v != (pattern(k, line) != invert) {
						t.Fatalf("%s %v line %d (invert=%v): read %v ok=%v", cfg.Name, lv.s, line, invert, v, ok)
					}
				}
			}
		}
		blob := core.EncodeState(nil)
		for _, bad := range []struct {
			s    Structure
			line int
		}{{StructRF, 0}, {StructLSQ, 0}, {StructL2, -1}, {StructL2, x.Lines(StructL2)}} {
			if _, ok := x.LineValid(blob, bad.s, bad.line); ok {
				t.Fatalf("%s: LineValid(%v, %d) accepted", cfg.Name, bad.s, bad.line)
			}
		}
		if _, ok := x.LineValid(blob[:x.cache[2].recs()], StructL2, 0); ok {
			t.Fatalf("%s: LineValid accepted a blob cut before the flag", cfg.Name)
		}
	}
}

// TestGoldenLineValidityMonotone pins the invariant the campaign-level
// dead-line pre-check rests on: stepping fault-free runs cycle by
// cycle, no cache line ever goes from valid to invalid. A level is
// rescanned in every cycle that moved its LRU tick (every access does)
// and every 64th cycle regardless, which keeps the L2 scans affordable.
func TestGoldenLineValidityMonotone(t *testing.T) {
	for _, bench := range []string{"sha", "qsort"} {
		spec, err := workload.Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{ConfigA72(), ConfigA9()} {
			img := buildImage(t, spec.Gen(3, 1), cfg.ISA)
			core := New(cfg, img.NewMemory(), img.Entry)
			caches := []*cache{core.l1i, core.l1d, core.l2}
			was := make([][]bool, len(caches))
			ticks := make([]int64, len(caches))
			for k, ch := range caches {
				was[k] = make([]bool, ch.cfg.Lines())
			}
			filled := 0
			for core.Step() {
				for k, ch := range caches {
					if ch.tick == ticks[k] && core.Cycle%64 != 0 {
						continue
					}
					ticks[k] = ch.tick
					line := 0
					for si := range ch.sets {
						for wi := range ch.sets[si] {
							v := ch.sets[si][wi].valid
							if was[k][line] && !v {
								t.Fatalf("%s/%s: line %d of cache %d went invalid at cycle %d", bench, cfg.Name, line, k, core.Cycle)
							}
							if v && !was[k][line] {
								filled++
							}
							was[k][line] = v
							line++
						}
					}
				}
			}
			if filled == 0 {
				t.Fatalf("%s/%s: no line was ever filled", bench, cfg.Name)
			}
			t.Logf("%s/%s: %d cycles, %d lines filled", bench, cfg.Name, core.Cycle, filled)
		}
	}
}
