package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vulnstack/internal/results"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOut is one benchmark run's parsed output.
type runOut struct {
	code    int
	info    map[string]any
	correct bool
	failed  int
	metrics map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the benchmark in-process with tiny campaigns.
func runBench(t *testing.T, args ...string) runOut {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	args = append([]string{"-quick", "-seconds", "0", "-workdir", t.TempDir()}, args...)
	code, err := run(args, f)
	if code == 2 {
		t.Fatalf("run %v: %v", args, err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		t.Fatalf("run %v printed %d lines", args, len(lines))
	}
	out := runOut{code: code}
	var info struct{ Vsbench map[string]any }
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		t.Fatal(err)
	}
	out.info = info.Vsbench
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted < 1 {
		t.Fatalf("attempted = %d", res.Attempted)
	}
	out.correct, out.failed, out.metrics = res.Correct, res.Failed, res.Metrics
	return out
}

// TestSchema checks BENCHMARK.json against the benchmark: names and
// units are well formed, and a short run of every workload emits
// exactly the declared end-to-end metrics (untraced) and per-layer
// metrics (traced), each with its declared unit.
func TestSchema(t *testing.T) {
	s := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, ms := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("malformed metric %q unit %q", m.Name, m.Unit)
			}
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	if len(names) != len(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
		}
	}
	for _, w := range names {
		for trace, want := range map[string][]specMetric{"0": s.EndToEnd, "1": s.PerLayer} {
			out := runBench(t, "-workload", w, "-seed", "7", "-trace", trace)
			if out.code != 0 || !out.correct || out.failed != 0 {
				t.Errorf("%s trace=%s: code %d correct %v failed %d: %v", w, trace, out.code, out.correct, out.failed, out.info["errors"])
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w, trace, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, declared %q", w, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPerturbedTallyCaught flips one stored outcome after the traced
// repetition's measured region: its tally digest no longer matches the
// untraced repetition's, so the run reports failures and exits 1.
func TestPerturbedTallyCaught(t *testing.T) {
	afterTimed = func(s *repState, index int) {
		if index != 1 {
			return
		}
		ms, err := s.store.List()
		if err != nil || len(ms) == 0 {
			t.Fatalf("list: %v (%d campaigns)", err, len(ms))
		}
		k := ms[0].Key
		recs, _, err := s.store.Load(k)
		if err != nil {
			t.Fatal(err)
		}
		recs[0].Outcome = (recs[0].Outcome + 1) % results.NumOutcomes
		if err := s.store.Save(k, recs); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { afterTimed = nil }()
	out := runBench(t, "-workload", "archsoft-paper", "-seed", "7", "-trace", "1")
	if out.code != 1 || out.correct || out.failed == 0 {
		t.Fatalf("perturbed run: code %d correct %v failed %d, want 1 false >0", out.code, out.correct, out.failed)
	}
	if frac, _ := out.info["failed_frac"].(float64); frac <= 0 {
		t.Fatalf("failed_frac = %v, want > 0", out.info["failed_frac"])
	}
}

// TestPinnedDigestMismatch checks a default-seed repetition against a
// wrong pin fails, and an unpinned input adopts its first digests.
func TestPinnedDigestMismatch(t *testing.T) {
	c := newChecker("archsoft-paper", defaultSeed, true)
	if !c.pinned || c.check(0, digests{Tallies: "0"}) == nil {
		t.Fatal("a digest differing from the pin passed")
	}
	c = newChecker("archsoft-paper", defaultSeed+1, true)
	if c.pinned || c.check(0, digests{Tallies: "a"}) != nil || c.check(0, digests{Tallies: "b"}) == nil {
		t.Fatal("unpinned input: the first digests must become the reference")
	}
	if c.check(1, digests{Tallies: "b"}) != nil {
		t.Fatal("input 1 has its own reference")
	}
}

// TestReplayWritesProgramStore checks that each workload's traced
// replay writes, byte for byte, the store the program's own path
// writes: the same campaigns, records, stratified rounds and checkpoint
// chains. A change to the program's campaign drivers that the replay
// does not follow fails here even when the tallies still agree.
func TestReplayWritesProgramStore(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &runner{seed: 7, workers: 2, quick: true, workdir: t.TempDir()}
			prog, err := w.setup(r, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.timed(r, prog); err != nil {
				t.Fatal(err)
			}
			replay, err := w.setup(r, true)
			if err != nil {
				t.Fatal(err)
			}
			r.tr = newTracer()
			if err := w.traced(r, replay, 0); err != nil {
				t.Fatal(err)
			}
			want, got := storeFiles(t, prog.dir), storeFiles(t, replay.dir)
			for name, b := range want {
				if g, ok := got[name]; !ok {
					t.Errorf("replay did not write %s", name)
				} else if g != b {
					t.Errorf("replay wrote %s differently", name)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("replay wrote %s, the program did not", name)
				}
			}
			if len(want) == 0 {
				t.Fatal("the program wrote no store files")
			}
		})
	}
}

// storeFiles maps each file of a store directory to its contents.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range es {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
