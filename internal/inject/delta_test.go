package inject

import (
	"reflect"
	"sync"
	"testing"

	"vulnstack/internal/micro"
)

// deltaAudit checks every delta restore and compare a campaign makes
// against the full-blob path, through deltaHook, and counts the cache
// sets each one read against what a full decode would read.
type deltaAudit struct {
	t  *testing.T
	cp *Campaign
	x  *micro.Layout
	// all is the number of cache sets one full decode reads.
	all int

	mu sync.Mutex
	deltaCounts
	sameSrc, converged int
	buf                map[*worker][]byte
}

// deltaCounts are the audit's work counters.
type deltaCounts struct{ restores, compares, sets int }

func newDeltaAudit(t *testing.T, cp *Campaign) *deltaAudit {
	a := &deltaAudit{t: t, cp: cp, buf: map[*worker][]byte{}}
	a.x = micro.New(cp.Cfg, cp.Img.NewMemory(), cp.Img.Entry).Layout()
	for _, c := range []micro.CacheConfig{cp.Cfg.L1I, cp.Cfg.L1D, cp.Cfg.L2} {
		a.all += c.Sets()
	}
	return a
}

// hook is the deltaHook body. It runs on the worker's goroutine, so the
// arena is quiescent while it is encoded.
func (a *deltaAudit) hook(w *worker, g, j, dirty, sets int, chunks []int32, eq bool) {
	bound := dirty
	for _, c := range chunks {
		bound += a.x.ChunkSets(int(c)*chunkBytes, (int(c)+1)*chunkBytes)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	blob := w.arena.EncodeState(a.buf[w][:0])
	a.buf[w] = blob
	ch := a.cp.Chain()
	if j < 0 {
		a.restores++
		if len(chunks) == 0 {
			a.sameSrc++
		}
		if !ch.StateEqual(g, blob) {
			a.t.Errorf("delta restore of checkpoint %d: arena encoding differs from the chain's blob", g)
		}
	} else {
		a.compares++
		if eq {
			a.converged++
		}
		if full := ch.StateEqual(j, blob); eq != full {
			a.t.Errorf("compare at checkpoint %d (restored from %d): delta verdict %v, full encoding %v", j, g, eq, full)
		}
	}
	if sets > bound {
		a.t.Errorf("delta op (g=%d, j=%d) read %d sets, more than %d dirty + %d under %d walked chunks",
			g, j, sets, dirty, bound-dirty, len(chunks))
	}
	a.sets += sets
}

// counts snapshots the work counters.
func (a *deltaAudit) counts() deltaCounts {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deltaCounts
}

// TestDeltaRestoreMatchesChain: on sha and qsort, for all four configs
// and all five structures, at one and three workers, every delta
// restore must leave the arena encoding byte for byte as the chain's
// blob, every delta compare must give the full encoding's verdict, and
// each must read no more cache sets than its dirty sets plus those
// under the walked chunks. The workers come from the campaign's pool,
// so restores both stay on one checkpoint and move between two. Over
// the one-worker sha/A72/L1d campaign the sets read must stay under a
// quarter of what full decodes would read.
func TestDeltaRestoreMatchesChain(t *testing.T) {
	const n, seed = 16, 2021
	defer func() { deltaHook = nil }()
	for _, bench := range []string{"sha", "qsort"} {
		for _, cfg := range micro.Configs() {
			cp := benchCampaign(t, bench, cfg, 8)
			a := newDeltaAudit(t, cp)
			deltaHook = a.hook
			// All one-worker calls come first: they run on a single
			// pooled arena in a fixed order, so their counts are a fixed
			// work measure.
			for _, workers := range []int{1, 3} {
				for st := micro.Structure(0); st < micro.NumStructures; st++ {
					before := a.counts()
					cp.Workers = workers
					cp.Records(st, n, 0, seed+int64(st), nil)
					if workers == 1 && st == micro.StructL1D && bench == "sha" && cfg.Name == "A72" {
						after := a.counts()
						sets := after.sets - before.sets
						// What full decodes and full compares would have read.
						full := (after.restores + after.compares - before.restores - before.compares) * a.all
						if full == 0 || 4*sets >= full {
							t.Errorf("sha/A72/L1d: delta ops read %d cache sets, full decodes would read %d (want < 25%%)", sets, full)
						}
						t.Logf("sha/A72/L1d, 1 worker: %d of %d cache sets (%.1f%%)", sets, full, 100*float64(sets)/float64(max(full, 1)))
					}
				}
			}
			if a.restores == 0 || a.sameSrc == 0 || a.sameSrc == a.restores || a.compares == 0 {
				t.Errorf("%s/%s: %d delta restores (%d on the same checkpoint), %d compares: a path went unexercised",
					bench, cfg.Name, a.restores, a.sameSrc, a.compares)
			}
			t.Logf("%s/%s: %d delta restores (%d same checkpoint), %d compares (%d converged), %d of %d sets",
				bench, cfg.Name, a.restores, a.sameSrc, a.compares, a.converged, a.sets, (a.restores+a.compares)*a.all)
			deltaHook = nil
		}
	}
}

// TestPooledArenasAcrossReference: calling Records on one campaign with
// Reference alternately on and off reuses the same pooled arenas under
// both engines; every call must return exactly the records a fresh
// campaign with that setting returns.
func TestPooledArenasAcrossReference(t *testing.T) {
	const n = 24
	cfg := micro.ConfigA72()
	shared := benchCampaign(t, "qsort", cfg, 8)
	for round, st := range []micro.Structure{micro.StructRF, micro.StructL1D, micro.StructLSQ, micro.StructL1I, micro.StructRF, micro.StructL2} {
		reference := round%2 == 0
		seed := int64(100 + round)
		fresh := benchCampaign(t, "qsort", cfg, 8)
		fresh.Reference, fresh.Workers = reference, 2
		shared.Reference, shared.Workers = reference, 2
		want := fresh.Records(st, n, 0, seed, nil)
		if got := shared.Records(st, n, 0, seed, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%v, Reference=%v): pooled-arena records differ from a fresh campaign's", round, st, reference)
		}
	}
	shared.idle.Lock()
	pooled := len(shared.idle.ws)
	shared.idle.Unlock()
	if pooled == 0 || pooled > 2 {
		t.Fatalf("%d pooled arenas after two-worker calls, want 1..2", pooled)
	}
}
