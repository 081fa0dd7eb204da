// Command vsbench is vulnstack's benchmark: it regenerates the paper's
// artifacts and runs its campaigns through the public API on two
// workloads, checks every output against pinned digests, and prints the
// end-to-end metrics (untraced run) or the per-layer split (traced run)
// as one JSON line. See README.md for the workloads and metrics.
//
//	vsbench -workload table3-cold -seed 2021 -seconds 60 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// runner carries one benchmark run's settings and its current tracer.
type runner struct {
	seed    int64
	workers int
	quick   bool
	workdir string  // holds the temporary stores
	tr      *tracer // nil outside traced repetitions
}

// sample is one repetition's measurement.
type sample struct {
	setup, wall, cpu time.Duration
	alloc, peak      uint64
	records          int
	storeBytes       int64
	traced, failed   bool
}

// minSetups is the least number of set-up samples behind setup_s.
const minSetups = 41

// afterTimed, when set, sees each repetition's state after its measured
// region and before its output check (a test seam).
var afterTimed func(s *repState, index int)

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsbench:", err)
	}
	os.Exit(code)
}

// run parses flags, runs the benchmark and prints its result; it returns
// the exit code: 0 when every operation succeeded and matched its
// digest, 1 when one failed, 2 when the benchmark could not run.
func run(args []string, stdout *os.File) (int, error) {
	fl := flag.NewFlagSet("vsbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run, or all to run each in turn")
	seed := fl.Int64("seed", defaultSeed, "input seed: program inputs and fault draws")
	seconds := fl.Float64("seconds", 60, "measuring time the workload's fixed inputs should fit in; a run over it is flagged (over_time), not cut")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer split")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "vsbench"), "directory for temporary stores and the trace file")
	quick := fl.Bool("quick", false, "tiny campaigns (no pinned digests): for the benchmark's own tests")
	commit := fl.String("commit", "unknown", "source revision recorded in the result")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *name == "all" {
		return runAll(args, stdout)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 2, err
	}
	r := &runner{seed: *seed, workers: workers, quick: *quick, workdir: *workdir}
	traced := *trace == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	chk := newChecker(w.name, *seed, !*quick)
	var samples []sample
	var setups []time.Duration
	attempted, failed := 0, 0
	var runErrs []string

	// One repetition on input k: set-up, the measured (untraced) or
	// traced region, then the output check outside the measured region.
	rep := func(index, k int, traced bool) (sample, error) {
		var sm sample
		sm.traced = traced
		r.seed = inputSeed(*seed, k)
		if traced {
			r.tr = tr
			tr.run = index
		}
		defer func() { r.tr = nil }()
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(r, traced)
		sm.setup = time.Since(t0)
		if s != nil {
			defer os.RemoveAll(s.dir)
		}
		if err != nil {
			return sm, err
		}
		wall, cpu, alloc, peak, err := measure(func() error {
			if !traced {
				return w.timed(r, s)
			}
			_, err := tr.do(0, "bench", w.name, func(id int) error { return w.traced(r, s, id) })
			return err
		})
		sm.wall, sm.cpu, sm.alloc, sm.peak = wall, cpu, alloc, peak
		if err != nil {
			return sm, err
		}
		if afterTimed != nil {
			afterTimed(s, index)
		}
		// The output check is the benchmark's own work, outside the
		// program's, so it is not traced.
		r.tr = nil
		d := digests{Render: renderDigest(s.render)}
		if d.Tallies, sm.records, err = storeDigest(s.store); err != nil {
			return sm, err
		}
		sm.storeBytes = dirBytes(s.dir)
		if err := chk.check(k, d); err != nil {
			return sm, err
		}
		return sm, nil
	}

	// Every run measures the same work, inputs 0..inputs-1, whatever
	// the host's speed. --seconds only flags a run that takes longer. A
	// traced run alternates an untraced and a traced repetition on each
	// input, so it takes the first half of the inputs to last about as
	// long as an untraced run.
	inputs := w.inputs
	step := 1
	if traced {
		inputs, step = (inputs+1)/2, 2
	}
	if *quick {
		inputs = 1
	}
	start := time.Now()
	for k := 0; k < inputs; k++ {
		for j := 0; j < step; j++ {
			sm, err := rep(k*step+j, k, j == 1)
			attempted += w.ops
			if err != nil {
				failed += w.ops
				runErrs = append(runErrs, err.Error())
				sm.failed = true
			}
			samples = append(samples, sm)
			if !sm.traced {
				setups = append(setups, sm.setup)
			}
		}
	}
	elapsed := time.Since(start)
	overTime := elapsed > time.Duration(*seconds*float64(time.Second))
	if overTime {
		fmt.Fprintf(os.Stderr, "vsbench: %s took %.1f s, over the %g s of --seconds\n", w.name, elapsed.Seconds(), *seconds)
	}
	// More set-up samples, on further inputs: set-up is cheap.
	for k := inputs; len(setups) < minSetups; k++ {
		r.seed = inputSeed(*seed, k)
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(r, false)
		setups = append(setups, time.Since(t0))
		if s != nil {
			os.RemoveAll(s.dir)
		}
		if err != nil {
			return 2, fmt.Errorf("set-up: %w", err)
		}
	}

	var tracedWall, setupS, wallS, cpuS, rate, allocMB, rssMB, storeMB []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, sm := range samples {
		switch {
		case sm.failed:
			continue
		case sm.traced:
			tracedWall = append(tracedWall, sm.wall.Seconds())
			continue
		}
		wallS = append(wallS, sm.wall.Seconds())
		cpuS = append(cpuS, sm.cpu.Seconds())
		rate = append(rate, float64(sm.records)/sm.wall.Seconds())
		allocMB = append(allocMB, float64(sm.alloc)/1e6)
		rssMB = append(rssMB, float64(sm.peak)/1e6)
		storeMB = append(storeMB, float64(sm.storeBytes)/1e6)
	}
	// Every figure is the median over the run's repetitions, so a
	// repetition slowed by a burst of load on the host does not move it.
	values := map[string]float64{
		"wall_s": median(wallS), "setup_s": median(setupS), "cpu_s": median(cpuS),
		"records_per_s": median(rate), "alloc_mb": median(allocMB), "rss_mb": median(rssMB),
		"store_mb": median(storeMB),
	}
	names := endToEnd
	if traced {
		values = layerValues(tr, tracedWall, wallS)
		names = perLayer()
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := tr.write(path); err != nil {
			return 2, err
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range names {
		res.Metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	info := map[string]any{
		"workload":              w.name,
		"seed":                  *seed,
		"input_seeds":           inputSeeds(*seed, inputs),
		"trace":                 *trace,
		"quick":                 *quick,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"workers":               r.workers,
		"go":                    runtime.Version(),
		"commit":                *commit,
		"repetitions":           len(samples),
		"elapsed_s":             elapsed.Seconds(),
		"over_time":             overTime,
		"traced_repetitions":    len(tracedWall),
		"setup_samples":         len(setups),
		"wall_s_per_repetition": wallS,
		"digests":               chk.refs,
		"pinned":                chk.pinned,
		"failed_frac":           float64(failed) / float64(attempted),
		"errors":                runErrs,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"vsbench": info}); err != nil {
		return 2, err
	}
	if err := enc.Encode(res); err != nil {
		return 2, err
	}
	if failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed: %v", failed, attempted, runErrs)
	}
	return 0, nil
}

// runAll runs every workload in turn with the same flags and returns
// the worst exit code.
func runAll(args []string, stdout *os.File) (int, error) {
	code, errs := 0, []error(nil)
	for _, w := range workloads {
		c, err := run(append(args[:len(args):len(args)], "-workload", w.name), stdout)
		code = max(code, c)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	return code, errors.Join(errs...)
}

// inputSeeds lists the input seed of each of a run's inputs.
func inputSeeds(base int64, inputs int) []int64 {
	seeds := make([]int64, inputs)
	for k := range seeds {
		seeds[k] = inputSeed(base, k)
	}
	return seeds
}

// measure runs fn and returns its wall time, process CPU time (user +
// system), Go heap bytes allocated, and peak resident memory. Freed
// memory goes back to the OS first, so each measurement starts from the
// same resident baseline.
func measure(fn func() error) (wall, cpu time.Duration, alloc, peak uint64, err error) {
	debug.FreeOSMemory()
	stop, peakc := make(chan struct{}), make(chan uint64)
	go func() { peakc <- peakResident(stop) }()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a0, c0, t0 := m.TotalAlloc, cpuTime(), time.Now()
	err = fn()
	wall, cpu = time.Since(t0), cpuTime()-c0
	close(stop)
	peak = <-peakc
	runtime.ReadMemStats(&m)
	return wall, cpu, m.TotalAlloc - a0, peak, err
}

// peakResident samples the Go runtime's resident memory (mapped minus
// released to the OS) every 2 ms until stop closes, and returns the
// largest sample.
func peakResident(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var peak uint64
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64()-s[1].Value.Uint64())
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
