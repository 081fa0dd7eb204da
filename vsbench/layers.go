package main

// Traced calls into the layers' exported functions. Each helper issues
// exactly the call the public System/Lab path makes on an empty store
// (same targets, seeds, n, checkpoint counts and store keys) and wraps
// it in a span, so the traced run writes the same records the untraced
// one does — the tally digest checks it.

import (
	"fmt"
	"math/bits"
	"time"

	"vulnstack"
	"vulnstack/internal/arch"
	"vulnstack/internal/campaign"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/llfi"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
	"vulnstack/internal/static"
	"vulnstack/internal/strata"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// build compiles one target under a build span.
func (r *runner) build(parent int, t vulnstack.Target, is isa.ISA) (*vulnstack.System, error) {
	var s *vulnstack.System
	d, err := r.tr.do(parent, "build", "build "+t.Bench+"/"+is.String(), func(int) error {
		var err error
		s, err = vulnstack.Build(t, is)
		return err
	})
	r.tr.sample("build.ms", ms(d))
	return s, err
}

// labSystem builds one target into a Lab's cache under a build span.
func (r *runner) labSystem(parent int, lab *vulnstack.Lab, t vulnstack.Target, is isa.ISA) error {
	d, err := r.tr.do(parent, "build", "lab build "+t.Bench+"/"+is.String(), func(int) error {
		_, err := lab.System(t, is)
		return err
	})
	r.tr.sample("build.ms", ms(d))
	return err
}

// save persists one campaign's records under a results span.
func (r *runner) save(parent int, st *results.Store, k results.Key, recs []results.Record) error {
	d, err := r.tr.do(parent, "results", "save", func(int) error { return st.Save(k, recs) })
	r.tr.sample("results.save_ms", ms(d))
	return err
}

// saveChain encodes a golden checkpoint chain (ckpt span) and persists
// it (results span) under the fingerprint System gives it. Like
// System, a failed chain write is not an error: campaigns never depend
// on it.
func (r *runner) saveChain(parent int, st *results.Store, target, engine, config string, snaps int, ch *ckpt.Chain) {
	fp := ckpt.Fingerprint(engine, fmt.Sprintf("v%d", ckpt.ChainVersion), target, config,
		fmt.Sprintf("snapshots=%d", snaps), fmt.Sprintf("ram=%d", vulnstack.RAMSize),
		"earlystop=true", "decodecache=true", "tb=true")
	var data []byte
	r.tr.do(parent, "ckpt", "encode "+engine, func(int) error {
		ch.Meta.Fingerprint, ch.Meta.Target = fp, target
		data = ch.Encode()
		return nil
	})
	r.tr.add("ckpt.chain_bytes", float64(len(data)))
	r.tr.add("ckpt.chains", 1)
	r.tr.do(parent, "results", "save chain", func(int) error { return st.SaveChain(fp, data) })
}

// microRun is one structure campaign of a micro-layer measurement.
type microRun struct {
	st   micro.Structure
	n    int
	seed int64
}

// tracedMicroPrepare is System.MicroCampaign on an empty store: the
// golden run and the chain write.
func (r *runner) tracedMicroPrepare(parent int, s *vulnstack.System, st *results.Store, cfg micro.Config) (*inject.Campaign, error) {
	var cp *inject.Campaign
	d, err := r.tr.do(parent, "inject", "prepare "+cfg.Name, func(int) error {
		var err error
		cp, err = inject.Prepare(s.Image, cfg, s.Snapshots, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.sample("inject.prepare_s", d.Seconds())
	r.tr.add("inject.prepare_total_s", d.Seconds())
	r.tr.add("inject.golden_cycles", float64(cp.Golden.Cycles))
	cp.Workers = r.workers
	r.saveChain(parent, st, s.MicroKey(cfg, 0, 0).Target, inject.Engine, cfg.Name, s.Snapshots, cp.Chain())
	return cp, nil
}

// microRecords runs the given structure campaigns on a prepared
// campaign and stores each: what System.MicroTally does on an empty
// store.
func (r *runner) microRecords(parent int, s *vulnstack.System, st *results.Store, cp *inject.Campaign, cfg micro.Config, runs []microRun) error {
	for _, run := range runs {
		var recs []results.Record
		name := run.st.String()
		d, _ := r.tr.do(parent, "inject", "records "+cfg.Name+"/"+name, func(int) error {
			recs = cp.Records(run.st, run.n, 0, run.seed, nil)
			return nil
		})
		r.tr.sample("inject.ms_per_injection."+name, ms(d)/float64(run.n))
		r.tr.add("inject.injections", float64(run.n))
		r.tr.add("inject.n."+name, float64(run.n))
		r.tr.add("inject.early."+name, float64(earlyStops(recs)))
		if err := r.save(parent, st, s.MicroKey(cfg, run.st, run.seed), recs); err != nil {
			return err
		}
	}
	return nil
}

func earlyStops(recs []results.Record) int {
	n := 0
	for _, rec := range recs {
		if rec.EarlyStop {
			n++
		}
	}
	return n
}

// tracedArchPrepare is System.ArchCampaign on an empty store.
func (r *runner) tracedArchPrepare(parent int, s *vulnstack.System, st *results.Store) (*arch.Campaign, error) {
	var cp *arch.Campaign
	d, err := r.tr.do(parent, "arch", "prepare", func(int) error {
		var err error
		cp, err = arch.PrepareWith(s.Image, s.Snapshots, arch.PrepareOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.sample("arch.prepare_s", d.Seconds())
	r.tr.add("arch.prepare_total_s", d.Seconds())
	r.tr.add("arch.golden_instr", float64(cp.GoldenInstr))
	cp.Workers = r.workers
	r.saveChain(parent, st, s.SoftKey(0).Target, arch.Engine, "", s.Snapshots, cp.Chain())
	return cp, nil
}

// archRecords times one arch-layer injection call.
func (r *runner) archRecords(parent int, fpm micro.FPM, call func() []results.Record) []results.Record {
	var recs []results.Record
	d, _ := r.tr.do(parent, "arch", "records "+fpm.String(), func(int) error {
		recs = call()
		return nil
	})
	r.tr.sample("arch.ms_per_injection."+fpm.String(), ms(d)/float64(max(len(recs), 1)))
	r.tr.add("arch.injections", float64(len(recs)))
	r.tr.add("arch.early", float64(earlyStops(recs)))
	return recs
}

// tracedLLFIPrepare is System.LLFICampaign.
func (r *runner) tracedLLFIPrepare(parent int, s *vulnstack.System) (*llfi.Campaign, error) {
	var cp *llfi.Campaign
	d, err := r.tr.do(parent, "llfi", "prepare", func(int) error {
		var err error
		cp, err = llfi.PrepareWith(s.IR, vulnstack.RAMSize, llfi.PrepareOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.sample("llfi.prepare_s", d.Seconds())
	cp.Workers = r.workers
	cp.Static = s.Static
	return cp, nil
}

// llfiRecords times one soft-layer injection call.
func (r *runner) llfiRecords(parent int, call func() []results.Record) []results.Record {
	var recs []results.Record
	d, _ := r.tr.do(parent, "llfi", "records", func(int) error {
		recs = call()
		return nil
	})
	r.tr.sample("llfi.ms_per_injection", ms(d)/float64(max(len(recs), 1)))
	r.tr.add("llfi.injections", float64(len(recs)))
	r.tr.add("llfi.early", float64(earlyStops(recs)))
	return recs
}

// tracedStatic solves the image's static CFG liveness and, when s has
// Static set, its demanded bits: the analyses System's stratified
// campaigns key their partitions on.
func (r *runner) tracedStatic(parent int, s *vulnstack.System) (*static.CFG, *static.BitFlow) {
	var g *static.CFG
	var bf *static.BitFlow
	d, _ := r.tr.do(parent, "static", "analyze", func(int) error {
		g = static.BuildCFG(s.ISA, static.ImageSegs(s.Image))
		g.Liveness()
		if s.Static {
			bf = g.SolveBits()
		}
		return nil
	})
	r.tr.sample("static.analyze_ms", ms(d))
	return g, bf
}

// stratMode is the store key mode of a stratified campaign run under
// the translation-block engine (System's default).
func stratMode(opt vulnstack.StratOptions, part *strata.Partition) string {
	return fmt.Sprintf("strat,pool=%d,n0=%d,ci=%g,conf=%g,part=%s,tb",
		opt.Pool, opt.N0, opt.CI, opt.Confidence, part.Fingerprint())
}

// tracedStratPVF is System.StratPVF on an empty store.
func (r *runner) tracedStratPVF(parent int, s *vulnstack.System, st *results.Store, cp *arch.Campaign,
	g *static.CFG, bf *static.BitFlow, fpm micro.FPM, opt vulnstack.StratOptions, seed int64) error {
	var pool []arch.Fault
	r.tr.do(parent, "arch", "pool "+fpm.String(), func(int) error {
		pool = cp.Pool(fpm, opt.Pool, seed)
		return nil
	})
	var part *strata.Partition
	r.tr.do(parent, "strata", "partition "+fpm.String(), func(int) error {
		pcs := cp.CheckpointPCs()
		part = strata.New(len(pool), func(i int) strata.Key {
			f := pool[i]
			pc := pcs[cp.CkptFor(f.K)]
			class := fpm.String()
			if fpm != micro.FPMWD {
				if w, ok := s.Image.RAM.Word32(pc); ok {
					class = isa.FlipClass(w, f.Bit%32, s.ISA).String()
				} else {
					class = "nofetch"
				}
			}
			key := strata.Key{Class: class, Bit: strata.BitBucket(f.Bit), Live: liveBucket(s, g, pc)}
			if bf != nil {
				key.Dem = demBucket(s, bf, pc, f.Bit)
			}
			return key
		})
		return nil
	})
	k := s.ArchKey(fpm, seed)
	k.Mode = stratMode(opt, part)
	n, err := r.stratRounds(parent, st, k, part, nil, opt, func(sites []int, base int) []results.Record {
		faults := make([]arch.Fault, len(sites))
		for i, site := range sites {
			faults[i] = pool[site]
		}
		return r.archRecords(parent, fpm, func() []results.Record { return cp.RecordsAt(faults, base, nil) })
	})
	r.tr.add("strata.injections.arch", float64(n))
	r.tr.add("strata.uniform", float64(vulnstack.UniformSamplesFor(opt.CI, opt.Confidence)))
	return err
}

// tracedStratSVF is System.StratSVF on an empty store.
func (r *runner) tracedStratSVF(parent int, s *vulnstack.System, st *results.Store, cp *llfi.Campaign,
	opt vulnstack.StratOptions, seed int64) error {
	var pool []llfi.Fault
	r.tr.do(parent, "llfi", "pool", func(int) error {
		pool = cp.Pool(opt.Pool, seed)
		return nil
	})
	useStatic := s.Static && cp.IRBits() != nil
	var part *strata.Partition
	var resolved []bool
	r.tr.do(parent, "strata", "partition soft", func(int) error {
		part = strata.New(len(pool), func(i int) strata.Key {
			f := pool[i]
			class := "dead"
			if cp.UsedDef(f.Seq) {
				class = "live"
			}
			key := strata.Key{Class: class, Bit: strata.BitBucket(int(f.Bit)), Live: -1}
			if useStatic {
				key.Dem = strata.DemDemanded
				if cp.StaticMasked(f) {
					key.Dem = strata.DemResolved
				}
			}
			return key
		})
		if useStatic {
			resolved = make([]bool, part.NumStrata())
			for h := range resolved {
				resolved[h] = part.Key(h).Dem == strata.DemResolved
			}
		}
		return nil
	})
	for h, ok := range resolved {
		if ok {
			r.tr.add("llfi.resolved", float64(part.Sizes()[h]))
		}
	}
	r.tr.add("llfi.pool", float64(len(pool)))
	k := s.SoftKey(seed)
	k.Mode = stratMode(opt, part)
	n, err := r.stratRounds(parent, st, k, part, resolved, opt, func(sites []int, base int) []results.Record {
		faults := make([]llfi.Fault, len(sites))
		for i, site := range sites {
			faults[i] = pool[site]
		}
		return r.llfiRecords(parent, func() []results.Record { return cp.RecordsAt(faults, base, nil) })
	})
	r.tr.add("strata.injections.soft", float64(n))
	r.tr.add("strata.uniform", float64(vulnstack.UniformSamplesFor(opt.CI, opt.Confidence)))
	return err
}

func liveBucket(s *vulnstack.System, g *static.CFG, pc uint64) int {
	mask, ok := g.LiveOutAt(pc)
	if !ok {
		return -1
	}
	return strata.LiveBucket(bits.OnesCount32(mask), s.ISA.NumRegs())
}

func demBucket(s *vulnstack.System, bf *static.BitFlow, pc uint64, bit int) int {
	d, ok := bf.DemandedUnionAt(pc)
	if !ok || d&(1<<uint(bit%s.ISA.XLen())) != 0 {
		return strata.DemDemanded
	}
	return strata.DemUndemanded
}

// stratRounds is the stratified driver on an empty store: pilot, then
// Neyman rounds planned from completed-round tallies, each round
// injected stratum-major and persisted. It returns the injection count.
func (r *runner) stratRounds(parent int, st *results.Store, k results.Key, part *strata.Partition, resolved []bool,
	opt vulnstack.StratOptions, injectAt func(sites []int, base int) []results.Record) (int, error) {
	sizes, labels := part.Sizes(), part.Labels()
	byStratum := make([][]int, part.NumStrata())
	for h := range byStratum {
		byStratum[h] = part.Sites(h)
	}
	plan := campaign.StratPlan{Sizes: sizes, N0: opt.N0, CI: opt.CI, Confidence: opt.Confidence, Resolved: resolved}
	sampled := make([]int, len(sizes))
	tallies := make([]results.Tally, len(sizes))
	for h, ok := range resolved {
		if ok {
			tallies[h].N = sizes[h]
			tallies[h].Outcomes[results.Masked] = sizes[h]
			sampled[h] = sizes[h]
		}
	}
	next := func(first bool) []int {
		var counts []int
		r.tr.do(parent, "strata", "plan", func(int) error {
			if first {
				counts = plan.Pilot()
			} else {
				counts = plan.Next(tallies)
			}
			return nil
		})
		return counts
	}
	total, saved := 0, false
	for counts := next(true); counts != nil; counts = next(false) {
		var sites, strat []int
		for h, c := range counts {
			for _, site := range byStratum[h][sampled[h] : sampled[h]+c] {
				sites = append(sites, site)
				strat = append(strat, h)
			}
			sampled[h] += c
		}
		if len(sites) == 0 {
			continue
		}
		recs := injectAt(sites, total)
		for i := range recs {
			recs[i].Stratum = labels[strat[i]]
			tallies[strat[i]].Add(recs[i])
		}
		var err error
		if !saved {
			err = r.save(parent, st, k, recs)
			saved = true
		} else {
			d, e := r.tr.do(parent, "results", "append", func(int) error { return st.Append(k, recs) })
			r.tr.sample("results.save_ms", ms(d))
			err = e
		}
		if err != nil {
			return total, err
		}
		total += len(recs)
	}
	return total, nil
}
