package main

import "strings"

// metric is one reported figure: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user regenerating the paper sees, reported
// by untraced runs. Every one is non-zero on every workload.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"records_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"rss_mb", "MB"},
	{"store_mb", "MB"},
}

var (
	structures = []string{"RF", "LSQ", "L1i", "L1d", "L2"}
	archFPMs   = []string{"WD", "WI", "WOI"}
	layers     = []string{"build", "inject", "ckpt", "arch", "llfi", "static", "strata", "results", "lab"}
)

// dist adds a call-timing distribution: its median, nearest-rank 90th
// percentile and sample count.
func dist(ms []metric, name, unit string) []metric {
	return append(ms, metric{name, unit}, metric{name + ".p90", unit}, metric{name + ".n", "count"})
}

// perLayer are the traced run's figures, in report order. A layer a
// workload does not exercise reports 0.
func perLayer() []metric {
	var ms []metric
	ms = dist(ms, "build.ms", "ms")
	ms = dist(ms, "inject.prepare_s", "s")
	ms = append(ms, metric{"inject.golden_cycles_per_s", "1/s"}, metric{"inject.injections", "count"})
	for _, st := range structures {
		ms = dist(ms, "inject.ms_per_injection."+st, "ms")
	}
	for _, st := range structures {
		ms = append(ms, metric{"inject.early_stop_frac." + st, "frac"})
	}
	ms = append(ms, metric{"ckpt.chain_mb", "MB"}, metric{"ckpt.chains", "count"})
	ms = dist(ms, "arch.prepare_s", "s")
	ms = append(ms, metric{"arch.golden_instr_per_s", "1/s"}, metric{"arch.injections", "count"})
	for _, f := range archFPMs {
		ms = dist(ms, "arch.ms_per_injection."+f, "ms")
	}
	ms = append(ms, metric{"arch.early_stop_frac", "frac"})
	ms = dist(ms, "llfi.prepare_s", "s")
	ms = dist(ms, "llfi.ms_per_injection", "ms")
	ms = append(ms, metric{"llfi.injections", "count"}, metric{"llfi.early_stop_frac", "frac"},
		metric{"llfi.static_resolved_frac", "frac"})
	ms = dist(ms, "static.analyze_ms", "ms")
	ms = append(ms, metric{"strata.injections.arch", "count"}, metric{"strata.injections.soft", "count"},
		metric{"strata.reduction", "x"})
	ms = dist(ms, "results.save_ms", "ms")
	ms = append(ms, metric{"lab.experiment_ms.table3", "ms"})
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_s", "s"})
	}
	return append(ms, metric{"trace.wall_s", "s"}, metric{"trace.untraced_wall_s", "s"},
		metric{"trace.overhead_s", "s"}, metric{"trace.spans", "count"})
}

// layerValues computes every per-layer figure from a traced run.
func layerValues(t *tracer, tracedWall, untracedWall []float64) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer() {
		if base, ok := strings.CutSuffix(m.name, ".p90"); ok {
			v[m.name] = p90(t.samples[base])
		} else if base, ok := strings.CutSuffix(m.name, ".n"); ok {
			v[m.name] = float64(len(t.samples[base]))
		} else if xs, ok := t.samples[m.name]; ok {
			v[m.name] = median(xs)
		} else {
			v[m.name] = t.count(m.name)
		}
	}
	// Ratios are formed from per-repetition counts.
	ratio := func(num, den string) float64 {
		if d := t.count(den); d > 0 {
			return t.count(num) / d
		}
		return 0
	}
	for _, st := range structures {
		v["inject.early_stop_frac."+st] = ratio("inject.early."+st, "inject.n."+st)
	}
	v["arch.early_stop_frac"] = ratio("arch.early", "arch.injections")
	v["llfi.early_stop_frac"] = ratio("llfi.early", "llfi.injections")
	v["llfi.static_resolved_frac"] = ratio("llfi.resolved", "llfi.pool")
	if n := t.count("strata.injections.arch") + t.count("strata.injections.soft"); n > 0 {
		v["strata.reduction"] = t.count("strata.uniform") / n
	}
	v["ckpt.chain_mb"] = t.count("ckpt.chain_bytes") / 1e6
	v["inject.golden_cycles_per_s"] = ratio("inject.golden_cycles", "inject.prepare_total_s")
	v["arch.golden_instr_per_s"] = ratio("arch.golden_instr", "arch.prepare_total_s")
	for l, s := range t.selfTimes() {
		if _, ok := v[l+".self_s"]; ok {
			v[l+".self_s"] = s
		}
	}
	v["trace.wall_s"] = median(tracedWall)
	v["trace.untraced_wall_s"] = median(untracedWall)
	v["trace.overhead_s"] = v["trace.wall_s"] - v["trace.untraced_wall_s"]
	v["trace.spans"] = float64(len(t.spans))
	return v
}
