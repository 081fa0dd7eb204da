package results

import (
	"os"
	"path/filepath"
	"testing"

	"vulnstack/internal/micro"
)

func rec(i int, o Outcome, visible bool, fpm micro.FPM) Record {
	return Record{Index: i, Layer: LayerMicro, Target: "RF", Coord: uint64(100 + i),
		Bit: i % 8, Outcome: o, Visible: visible, FPM: fpm, Live: visible}
}

func TestTallyOf(t *testing.T) {
	recs := []Record{
		rec(0, Masked, false, micro.FPMNone),
		rec(1, SDC, true, micro.FPMWD),
		rec(2, Crash, true, micro.FPMWI),
		rec(3, Detected, false, micro.FPMNone),
		rec(4, SDC, true, micro.FPMWD),
	}
	tl := TallyOf(recs)
	if tl.N != 5 || tl.Outcomes[SDC] != 2 || tl.Outcomes[Crash] != 1 ||
		tl.Outcomes[Detected] != 1 || tl.Outcomes[Masked] != 1 {
		t.Fatalf("tally %+v", tl)
	}
	if tl.Visible != 3 || tl.FPM[micro.FPMWD] != 2 || tl.FPM[micro.FPMWI] != 1 {
		t.Fatalf("visibility %+v", tl)
	}
	if got := tl.Failures(); got != tl.Frac(SDC)+tl.Frac(Crash) {
		t.Fatalf("failures %v", got)
	}
	if tl.AVF() != tl.PVF() || tl.PVF() != tl.SVF() {
		t.Fatal("layer views must agree on the failure fraction")
	}
	if got := tl.HVF(); got != 0.6 {
		t.Fatalf("HVF %v", got)
	}
	if got := tl.FPMShare(micro.FPMWD); got != 2.0/3 {
		t.Fatalf("FPMShare %v", got)
	}
	// Streaming Add over the same records agrees with TallyOf.
	var st Tally
	for _, r := range recs {
		st.Add(r)
	}
	if st != tl {
		t.Fatalf("stream %+v != batch %+v", st, tl)
	}
}

func TestTallyEmpty(t *testing.T) {
	var tl Tally
	if tl.Frac(SDC) != 0 || tl.HVF() != 0 || tl.FPMShare(micro.FPMWD) != 0 || tl.Failures() != 0 {
		t.Fatal("empty tally fractions must be 0")
	}
}

func TestKeyID(t *testing.T) {
	k := Key{Layer: "micro", Target: "sha/1/1/false/VSA64", Config: "A72", Struct: "RF", Seed: 2021}
	if k.ID() != k.ID() || len(k.ID()) != 16 {
		t.Fatalf("id %q", k.ID())
	}
	k2 := k
	k2.Seed = 2022
	if k.ID() == k2.ID() {
		t.Fatal("different keys must have different ids")
	}
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "micro", Target: "sha", Config: "A72", Struct: "RF", Seed: 7}

	if _, ok, err := s.Load(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	recs := []Record{rec(0, Masked, false, 0), rec(1, SDC, true, micro.FPMWD)}
	if err := s.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("roundtrip %+v", got)
	}
	if TallyOf(got) != TallyOf(recs) {
		t.Fatal("reloaded tally must be bit-identical")
	}
}

func TestStoreAppend(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "soft", Target: "sha", Seed: 7}
	if err := s.Append(k, []Record{rec(0, SDC, false, 0)}); err == nil {
		t.Fatal("append to unknown campaign must error")
	}
	if err := s.Save(k, []Record{rec(0, Masked, false, 0), rec(1, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	// Non-contiguous append (gap in the pre-drawn sequence) must error.
	if err := s.Append(k, []Record{rec(5, Crash, false, 0)}); err == nil {
		t.Fatal("non-contiguous append must error")
	}
	if err := s.Append(k, []Record{rec(2, Crash, false, 0), rec(3, Detected, false, 0)}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok || len(got) != 4 {
		t.Fatalf("after append: %d records, ok=%v err=%v", len(got), ok, err)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	m, ok, err := s.Manifest(k)
	if err != nil || !ok || m.N != 4 {
		t.Fatalf("manifest %+v ok=%v err=%v", m, ok, err)
	}
}

func TestStoreList(t *testing.T) {
	s := testStore(t)
	ka := Key{Layer: "micro", Target: "a", Config: "A72", Struct: "RF", Seed: 1}
	kb := Key{Layer: "arch", Target: "b", Struct: "WD", Seed: 2}
	if err := s.Save(kb, []Record{rec(0, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(ka, []Record{rec(0, Masked, false, 0)}); err != nil {
		t.Fatal(err)
	}
	ms, err := s.List()
	if err != nil || len(ms) != 2 {
		t.Fatalf("list: %d manifests, err=%v", len(ms), err)
	}
	// Sorted by key string: "arch/..." < "micro/...".
	if ms[0].Key != kb || ms[1].Key != ka {
		t.Fatalf("order %+v", ms)
	}
	m, c, err := s.CursorID(ka.ID(), Filter{})
	if err != nil || m.Key != ka {
		t.Fatalf("CursorID: %+v err=%v", m, err)
	}
	recs, err := c.Records()
	c.Close()
	if err != nil || len(recs) != 1 {
		t.Fatalf("CursorID records: %d err=%v", len(recs), err)
	}
	if _, _, err := s.CursorID("nope", Filter{}); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestStoreSchemaVersion(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "soft", Target: "x", Seed: 1}
	if err := s.Save(k, []Record{rec(0, Masked, false, 0)}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest to a future schema: loads must fail loudly,
	// not silently misaggregate.
	path := filepath.Join(s.Dir(), k.ID()+".json")
	if err := os.WriteFile(path, []byte(`{"schema":99,"key":{"layer":"soft","target":"x","seed":1},"n":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(k); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestStoreTruncatedRecords(t *testing.T) {
	s := testStore(t)
	k := Key{Layer: "soft", Target: "y", Seed: 1}
	if err := s.Save(k, []Record{rec(0, Masked, false, 0), rec(1, SDC, false, 0)}); err != nil {
		t.Fatal(err)
	}
	// Truncate the segment below the manifest count: corruption.
	if err := os.WriteFile(filepath.Join(s.Dir(), k.ID()+SegExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(k); err == nil {
		t.Fatal("truncated records must error")
	}
}
