package main

import (
	"errors"
	"os"
	"sync"

	"vulnstack"
	"vulnstack/internal/campaign"
	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// subset is the fixed benchmark subset every workload runs on: the pair
// of the paper's Fig. 1, whose SVF and AVF rank in opposite order.
var subset = []string{"sha", "qsort"}

// repState is one repetition's inputs and outputs.
type repState struct {
	dir     string // store directory
	store   *results.Store
	lab     *vulnstack.Lab
	systems []*vulnstack.System
	// render holds table3-cold's rendered report.
	render []string
}

// workload is one benchmark input set.
type workload struct {
	name string
	// ops is the operation count of one repetition: experiments or
	// campaigns, each of which can fail.
	ops int
	// inputs is the number of inputs a run measures, the same on every
	// host and commit.
	inputs int
	// setup prepares one repetition; its duration is a set-up sample.
	setup func(r *runner, traced bool) (*repState, error)
	// timed is the measured region of an untraced repetition.
	timed func(r *runner, s *repState) error
	// traced issues the same campaigns through the layers' exported
	// functions, under spans.
	traced func(r *runner, s *repState, root int) error
}

// inputSeed is the seed of input k of a run seeded with base: input 0
// is base itself.
func inputSeed(base int64, k int) int64 {
	return base + int64(k)*inputStride
}

// inputStride separates the input seeds of one run (a prime, so runs
// with nearby seeds share no input).
const inputStride = 104729

var workloads = []workload{
	{name: "table3-cold", ops: 1, inputs: 7, setup: table3Setup, timed: table3Timed, traced: table3Traced},
	{name: "archsoft-paper", ops: 2 * 4, inputs: 10, setup: archsoftSetup, timed: archsoftTimed, traced: archsoftTraced},
}

// labOptions are table3-cold's Lab settings: the study defaults on the
// fixed subset.
func (r *runner) labOptions(dir string) vulnstack.Options {
	o := vulnstack.DefaultOptions()
	if r.quick {
		o.NAVF, o.NPVF, o.NSVF = 3, 4, 6
	}
	o.Seed = r.seed
	o.Benches = subset
	o.Workers = r.workers
	o.StoreDir = dir
	return o
}

// stratOptions are the archsoft-paper settings, spelled out in full:
// the paper's ±2.88% at 99% confidence over the default pool.
func (r *runner) stratOptions() vulnstack.StratOptions {
	o := vulnstack.StratOptions{CI: vulnstack.DefaultStratCI, Confidence: 0.99,
		Pool: vulnstack.DefaultStratPool, N0: campaign.DefaultPilot}
	if r.quick {
		o.CI, o.Pool = 0.08, 1000
	}
	return o
}

// newStore makes a fresh, empty store directory.
func (r *runner) newStore() (*repState, error) {
	dir, err := os.MkdirTemp(r.workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := results.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &repState{dir: dir, store: st}, nil
}

// isas are the ISAs of table3's four microarchitectures.
var isas = []isa.ISA{isa.VSA32, isa.VSA64}

// --- table3-cold ---

// table3Setup opens an empty store and builds the subset for both ISAs:
// into a fresh Lab, and for a traced repetition also as standalone
// systems for the direct campaigns.
func table3Setup(r *runner, traced bool) (*repState, error) {
	s, err := r.newStore()
	if err != nil {
		return nil, err
	}
	s.lab = vulnstack.NewLab(r.labOptions(s.dir))
	for _, b := range subset {
		for _, is := range isas {
			if err := r.labSystem(0, s.lab, vulnstack.Target{Bench: b}, is); err != nil {
				return s, err
			}
			if !traced {
				continue
			}
			sys, err := r.build(0, vulnstack.Target{Bench: b, Seed: r.seed}, is)
			if err != nil {
				return s, err
			}
			sys.Snapshots = s.lab.Opts.Snapshots
			s.systems = append(s.systems, sys)
		}
	}
	return s, nil
}

// table3Timed regenerates table3 with the repetition's Lab and renders
// it.
func table3Timed(r *runner, s *repState) error {
	rep, err := s.lab.Run("table3")
	if err != nil {
		return err
	}
	s.render = append(s.render, rep.String())
	return nil
}

// t3System is one table3 system with the Lab's and System's
// serialization points: its WD PVF and SVF run once however many
// configurations ask for them (Lab.once), and its campaign
// preparations take turns (System's lock).
type t3System struct {
	*vulnstack.System
	prep           sync.Mutex
	pvf, svf       sync.Once
	pvfErr, svfErr error
}

// table3Traced issues table3's campaigns directly, fanned out as
// Lab.table3 fans them out: one goroutine per (configuration,
// benchmark) for its WD PVF, its AVF and, on VSA64, its SVF. Then it
// renders the table from the store with the Lab.
func table3Traced(r *runner, s *repState, root int) error {
	o := s.lab.Opts
	systems := map[string]*t3System{}
	for _, sys := range s.systems {
		systems[sys.Target.Bench+"/"+sys.ISA.String()] = &t3System{System: sys}
	}
	var fns []func() error
	for _, cfg := range vulnstack.Configs() {
		for _, b := range subset {
			ts := systems[b+"/"+cfg.ISA.String()]
			fns = append(fns,
				func() error {
					ts.pvf.Do(func() { ts.pvfErr = r.table3PVF(root, ts, s.store, o) })
					return ts.pvfErr
				},
				func() error { return r.table3AVF(root, ts, s.store, cfg, o) })
			if cfg.ISA == isa.VSA64 {
				fns = append(fns, func() error {
					ts.svf.Do(func() { ts.svfErr = r.table3SVF(root, ts, s.store, o) })
					return ts.svfErr
				})
			}
		}
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return r.labRun(root, s, "table3")
}

// table3PVF is System.PVF(WD) on an empty store.
func (r *runner) table3PVF(root int, ts *t3System, st *results.Store, o vulnstack.Options) error {
	_, err := r.tr.do(root, "bench", "pvf "+ts.MicroKey(micro.Config{}, 0, 0).Target, func(id int) error {
		ts.prep.Lock()
		cp, err := r.tracedArchPrepare(id, ts.System, st)
		ts.prep.Unlock()
		if err != nil {
			return err
		}
		recs := r.archRecords(id, micro.FPMWD, func() []results.Record {
			return cp.Records(micro.FPMWD, o.NPVF, 0, o.Seed, nil)
		})
		return r.save(id, st, ts.ArchKey(micro.FPMWD, o.Seed), recs)
	})
	return err
}

// table3AVF is System.AVFAll on an empty store: every structure, the
// cache structures with System's sample boost.
func (r *runner) table3AVF(root int, ts *t3System, st *results.Store, cfg micro.Config, o vulnstack.Options) error {
	_, err := r.tr.do(root, "bench", "avf "+cfg.Name+" "+ts.MicroKey(micro.Config{}, 0, 0).Target, func(id int) error {
		ts.prep.Lock()
		cp, err := r.tracedMicroPrepare(id, ts.System, st, cfg)
		ts.prep.Unlock()
		if err != nil {
			return err
		}
		var runs []microRun
		for stc := micro.Structure(0); stc < micro.NumStructures; stc++ {
			n := o.NAVF
			if b := vulnstack.CacheSampleBoost[stc]; b > 1 {
				n *= b
			}
			runs = append(runs, microRun{stc, n, o.Seed + int64(stc)*7919})
		}
		return r.microRecords(id, ts.System, st, cp, cfg, runs)
	})
	return err
}

// table3SVF is System.SVF on an empty store.
func (r *runner) table3SVF(root int, ts *t3System, st *results.Store, o vulnstack.Options) error {
	_, err := r.tr.do(root, "bench", "svf "+ts.MicroKey(micro.Config{}, 0, 0).Target, func(id int) error {
		ts.prep.Lock()
		lc, err := r.tracedLLFIPrepare(id, ts.System)
		ts.prep.Unlock()
		if err != nil {
			return err
		}
		recs := r.llfiRecords(id, func() []results.Record { return lc.Records(o.NSVF, 0, o.Seed, nil) })
		return r.save(id, st, ts.SoftKey(o.Seed), recs)
	})
	return err
}

// labRun regenerates and renders one experiment under a lab span.
func (r *runner) labRun(parent int, s *repState, id string) error {
	d, err := r.tr.do(parent, "lab", "experiment "+id, func(int) error {
		rep, err := s.lab.Run(id)
		if err == nil {
			s.render = append(s.render, rep.String())
		}
		return err
	})
	r.tr.sample("lab.experiment_ms."+id, ms(d))
	return err
}

// --- archsoft-paper ---

// archsoftSetup opens an empty store and builds the subset for VSA64 at
// System's own defaults, with the static resolution pass on.
func archsoftSetup(r *runner, traced bool) (*repState, error) {
	s, err := r.newStore()
	if err != nil {
		return nil, err
	}
	for _, b := range subset {
		sys, err := r.build(0, vulnstack.Target{Bench: b, Seed: r.seed}, isa.VSA64)
		if err != nil {
			return s, err
		}
		sys.Store = s.store
		sys.Workers = r.workers
		sys.Static = true
		s.systems = append(s.systems, sys)
	}
	return s, nil
}

var stratFPMs = []micro.FPM{micro.FPMWD, micro.FPMWI, micro.FPMWOI}

func archsoftTimed(r *runner, s *repState) error {
	opt := r.stratOptions()
	for _, sys := range s.systems {
		for _, fpm := range stratFPMs {
			if _, err := sys.StratPVF(fpm, opt, r.seed); err != nil {
				return err
			}
		}
		if _, err := sys.StratSVF(opt, r.seed); err != nil {
			return err
		}
	}
	return nil
}

func archsoftTraced(r *runner, s *repState, root int) error {
	opt := r.stratOptions()
	for _, sys := range s.systems {
		cp, err := r.tracedArchPrepare(root, sys, s.store)
		if err != nil {
			return err
		}
		g, bf := r.tracedStatic(root, sys)
		for _, fpm := range stratFPMs {
			if err := r.tracedStratPVF(root, sys, s.store, cp, g, bf, fpm, opt, r.seed); err != nil {
				return err
			}
		}
		lc, err := r.tracedLLFIPrepare(root, sys)
		if err != nil {
			return err
		}
		if err := r.tracedStratSVF(root, sys, s.store, lc, opt, r.seed); err != nil {
			return err
		}
	}
	return nil
}
