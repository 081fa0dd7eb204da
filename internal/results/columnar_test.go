package results

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulnstack/internal/colseg"
	"vulnstack/internal/micro"
)

// randomRecords draws a deterministic mixed record set shaped like a
// real campaign (all columns exercised, including negative-free but
// non-contiguous coordinates and every outcome/FPM class).
func randomRecords(n int, seed int64) []Record {
	r := rand.New(rand.NewSource(seed))
	targets := []string{"RF", "LSQ", "L1i", "L1d", "L2", "reg-uniform", ""}
	recs := make([]Record, n)
	coord := uint64(0)
	for i := range recs {
		coord += uint64(r.Intn(3000))
		recs[i] = Record{
			Index:     i,
			Layer:     Layer(r.Intn(int(NumLayers))),
			Target:    targets[r.Intn(len(targets))],
			Coord:     coord,
			Entry:     r.Intn(1 << 20),
			Bit:       r.Intn(64),
			Slot:      r.Intn(4),
			Outcome:   Outcome(r.Intn(int(NumOutcomes))),
			EarlyStop: r.Intn(4) == 0,
		}
		if r.Intn(3) == 0 {
			recs[i].Visible = true
			recs[i].Live = true
			recs[i].FPM = micro.FPM(r.Intn(int(micro.NumFPM)))
			recs[i].Contact = coord + uint64(r.Intn(100))
		}
		// Statically-resolved provenance (schema v3) rides the same
		// round-trip assertions as every other column.
		if r.Intn(5) == 0 {
			recs[i].StaticResolved = true
			recs[i].Outcome = Masked
		}
	}
	return recs
}

func TestColumnarRoundTrip(t *testing.T) {
	// Encode/decode through the column mapping is lossless for every
	// record count shape: empty, single, sub-block, and multi-block.
	for _, n := range []int{0, 1, 513, BlockRows, BlockRows + 7, 2*BlockRows + 3} {
		recs := randomRecords(n, int64(n)+1)
		data := encodeColumnar(recs)
		c := newCursor(bytes.NewReader(data), nil, "test", n, Filter{})
		got, err := c.Records()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d", n, len(got))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("n=%d record %d: %+v != %+v", n, i, got[i], recs[i])
			}
		}
	}
}

func TestColumnarNonContiguousIndex(t *testing.T) {
	// The index column is delta-coded against the previous row; gaps
	// (records filtered upstream, or a block boundary mid-campaign)
	// must survive exactly.
	recs := []Record{{Index: 5}, {Index: 6}, {Index: 100}, {Index: 101}, {Index: 4000}}
	data := encodeColumnar(recs)
	c := newCursor(bytes.NewReader(data), nil, "test", len(recs), Filter{})
	got, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i].Index != recs[i].Index {
			t.Fatalf("row %d index %d != %d", i, got[i].Index, recs[i].Index)
		}
	}
}

func TestJSONLConverterRoundTrip(t *testing.T) {
	// WriteJSONL -> ReadJSONL is the other half of the lossless
	// two-way converter.
	recs := randomRecords(700, 11)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d of %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCursorTallyMatchesTallyOf(t *testing.T) {
	// The streaming aggregation path must be bit-identical to the
	// materialize-then-TallyOf path.
	recs := randomRecords(BlockRows+999, 3)
	data := encodeColumnar(recs)
	c := newCursor(bytes.NewReader(data), nil, "test", len(recs), Filter{})
	got, err := c.Tally()
	if err != nil {
		t.Fatal(err)
	}
	if want := TallyOf(recs); got != want {
		t.Fatalf("cursor tally %+v != %+v", got, want)
	}
}

func TestFilterPushdownMatchesReference(t *testing.T) {
	// The column-wise selection vector must agree with the row-at-a-time
	// Filter.Match reference on every filter shape, for both Tally and
	// Records.
	recs := randomRecords(4000, 5)
	data := encodeColumnar(recs)
	filters := []Filter{
		{},
		{Outcomes: []Outcome{SDC}},
		{Outcomes: []Outcome{SDC, Crash}},
		{FPMs: []micro.FPM{micro.FPMWD}},
		{Targets: []string{"RF", "L2"}},
		{BitRange: true, BitLo: 8, BitHi: 15},
		{Outcomes: []Outcome{Masked}, Targets: []string{"LSQ"}, BitRange: true, BitLo: 0, BitHi: 31},
		{Outcomes: []Outcome{Detected}, FPMs: []micro.FPM{micro.FPMESC}, Targets: []string{"nope"}},
	}
	for fi, f := range filters {
		var want []Record
		for _, r := range recs {
			if f.Match(r) {
				want = append(want, r)
			}
		}
		c := newCursor(bytes.NewReader(data), nil, "test", len(recs), f)
		got, err := c.Records()
		if err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("filter %d: %d records, want %d", fi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("filter %d record %d mismatch", fi, i)
			}
		}
		c = newCursor(bytes.NewReader(data), nil, "test", len(recs), f)
		tl, err := c.Tally()
		if err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		if wt := TallyOf(want); tl != wt {
			t.Fatalf("filter %d: tally %+v != %+v", fi, tl, wt)
		}
	}
}

func TestStoreAppendTopUp(t *testing.T) {
	// A saved campaign topped up by Append stays bit-identical to a
	// one-shot save, and every prefix tallies like its records.
	s := testStore(t)
	k := Key{Layer: "soft", Target: "topup", Seed: 9}
	all := randomRecords(900, 13)
	if err := s.Save(k, all[:400]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(k, all[400:]); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok || len(got) != len(all) {
		t.Fatalf("load: %d ok=%v err=%v", len(got), ok, err)
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	tp, err := s.TallyPrefix(k, len(all))
	if err != nil {
		t.Fatal(err)
	}
	if want := TallyOf(all); tp != want {
		t.Fatalf("TallyPrefix %+v != %+v", tp, want)
	}
	if tp400, err := s.TallyPrefix(k, 400); err != nil || tp400 != TallyOf(all[:400]) {
		t.Fatalf("prefix 400: %+v err=%v", tp400, err)
	}
}

func TestStoreTrailingSegmentBytesIgnored(t *testing.T) {
	// Bytes past the manifest-promised rows are a crashed append's torn
	// tail — loads serve the promised prefix, and the next append
	// truncates the debris (mirroring the JSONL trailing-line behavior).
	s := testStore(t)
	k := Key{Layer: "micro", Target: "crash", Config: "A9", Struct: "L2", Seed: 4}
	recs := randomRecords(300, 21)
	if err := s.Save(k, recs[:200]); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(s.Dir(), k.ID()+SegExt)
	// Simulate a crash mid-append: half a block's bytes, no manifest
	// update.
	debris := encodeColumnar(recs[200:260])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(debris[:len(debris)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, ok, err := s.Load(k)
	if err != nil || !ok || len(got) != 200 {
		t.Fatalf("load with debris: %d ok=%v err=%v", len(got), ok, err)
	}
	// The re-append replays the same tail records and must supersede the
	// debris.
	if err := s.Append(k, recs[200:]); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Load(k)
	if err != nil || len(got) != 300 {
		t.Fatalf("load after re-append: %d err=%v", len(got), err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch after debris truncation", i)
		}
	}
}

func TestStoreSegmentVersionMismatch(t *testing.T) {
	// A segment written by a future block-format version must be
	// rejected loudly, never misdecoded.
	s := testStore(t)
	k := Key{Layer: "soft", Target: "ver", Seed: 6}
	if err := s.Save(k, randomRecords(10, 2)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(s.Dir(), k.ID()+SegExt)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = colseg.Version + 1 // frame version byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(k); !errors.Is(err, colseg.ErrVersion) {
		t.Fatalf("version mismatch err=%v, want ErrVersion", err)
	}
	if _, err := s.TallyPrefix(k, 10); !errors.Is(err, colseg.ErrVersion) {
		t.Fatalf("TallyPrefix version mismatch err=%v, want ErrVersion", err)
	}
}

func TestStoreExportJSONLRoundTrip(t *testing.T) {
	// Export (columnar -> JSONL) then re-read: the two-way converter is
	// lossless end to end through the store surface.
	s := testStore(t)
	k := Key{Layer: "arch", Target: "exp", Struct: "WD", Seed: 8}
	recs := randomRecords(500, 17)
	if err := s.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	sdc := Filter{Outcomes: []Outcome{SDC}}
	for _, f := range []Filter{{}, sdc} {
		var want []Record
		for _, r := range recs {
			if f.Match(r) {
				want = append(want, r)
			}
		}
		var buf bytes.Buffer
		if err := s.ExportJSONL(k.ID(), f, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSONL(&buf, -1)
		if err != nil || len(got) != len(want) {
			t.Fatalf("filter %+v: reimported %d of %d, err=%v", f, len(got), len(want), err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("filter %+v: record %d mismatch through export", f, i)
			}
		}
	}
}

func TestStoreRefusesPreColumnar(t *testing.T) {
	// Manifests written before the columnar store (no format field, or
	// "jsonl") are refused on every path with an error naming the
	// campaign; List must not silently skip them.
	for _, format := range []string{``, `,"format":"jsonl"`} {
		s := testStore(t)
		k := Key{Layer: "soft", Target: "old", Seed: 5}
		id := k.ID()
		manifest := `{"schema":3,"key":{"layer":"soft","target":"old","seed":5},"n":2` + format + `}`
		if err := os.WriteFile(filepath.Join(s.Dir(), id+".json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, loadErr := s.Load(k)
		_, _, cursorErr := s.Cursor(k, Filter{})
		_, tallyErr := s.TallyPrefix(k, 2)
		appendErr := s.Append(k, []Record{{Index: 2}})
		_, listErr := s.List()
		for _, c := range []struct {
			name string
			err  error
		}{{"Load", loadErr}, {"Cursor", cursorErr}, {"TallyPrefix", tallyErr}, {"Append", appendErr}, {"List", listErr}} {
			if c.err == nil || !strings.Contains(c.err.Error(), id) || !errors.Is(c.err, errPreColumnar) {
				t.Errorf("manifest %s: %s err=%v, want the pre-columnar refusal naming %s", manifest, c.name, c.err, id)
			}
		}
	}
}

// TestStoreListRefusesUnsupportedManifest: a manifest that parses but
// has a schema newer than this store or an unknown record format makes
// List fail with an error naming the campaign, while files that are
// not JSON manifests at all, and .tmp leftovers of interrupted writes,
// are skipped.
func TestStoreListRefusesUnsupportedManifest(t *testing.T) {
	for _, bad := range []string{
		`{"schema":4,"key":{"layer":"soft","target":"new","seed":5},"n":2,"format":"columnar"}`,
		`{"schema":3,"key":{"layer":"soft","target":"new","seed":5},"n":2,"format":"parquet"}`,
	} {
		s := testStore(t)
		good := Key{Layer: "micro", Target: "a", Config: "A72", Struct: "RF", Seed: 1}
		if err := s.Save(good, []Record{{Index: 0}}); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string]string{
			"notes.json":                  "not json at all",
			"0123456789abcdef.json.tmp":   bad,
			"fedcba9876543210.json":       `{"schema":3,"key":{"layer":"soft","tar`,
			good.ID() + ".json.tmp":       "{",
			"array.json":                  `[1,2,3]`,
			"0000000000000000.json.other": bad,
		} {
			if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if ms, err := s.List(); err != nil || len(ms) != 1 || ms[0].Key != good {
			t.Fatalf("foreign files only: List = %+v, err=%v; want just %v", ms, err, good)
		}
		id := Key{Layer: "soft", Target: "new", Seed: 5}.ID()
		if err := os.WriteFile(filepath.Join(s.Dir(), id+".json"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if ms, err := s.List(); err == nil || !strings.Contains(err.Error(), id) {
			t.Errorf("manifest %s: List = %+v, err=%v; want an error naming %s", bad, ms, err, id)
		}
	}
}

// FuzzReadManifest: the manifest decoder never panics; every input
// either decodes to a manifest that passes validation or is an error.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range []string{
		`{"schema":3,"key":{"layer":"micro","target":"sha","config":"A72","struct":"RF","seed":2021},"n":30,"format":"columnar"}`,
		`{"schema":3,"key":{"layer":"soft","target":"sha","seed":2021},"n":30}`,
		`{"schema":2,"key":{"layer":"arch","target":"sha","struct":"WD","seed":1},"n":4,"format":"jsonl"}`,
		`{"schema":0,"key":{"layer":"soft","target":"x","seed":1},"n":1,"format":"columnar"}`,
		`{"schema":4,"key":{"layer":"soft","target":"x","seed":1},"n":1,"format":"columnar"}`,
		`{"schema":3,"key":{"layer":"soft","target":"x","seed":1},"n":1,"format":"parquet"}`,
		`{"schema":3,"key":{"layer":"soft","tar`,
	} {
		f.Add([]byte(seed))
	}
	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const id = "0123456789abcdef"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(s.Dir(), id+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := s.readManifest(id)
		if err != nil {
			if ok {
				t.Fatalf("error %v with ok=true", err)
			}
			return
		}
		if !ok || m.Schema < 1 || m.Schema > SchemaVersion || m.Format != FormatColumnar {
			t.Fatalf("accepted invalid manifest %+v ok=%v from %q", m, ok, data)
		}
	})
}

func TestParseOutcomeFPM(t *testing.T) {
	if o, err := ParseOutcome("sdc"); err != nil || o != SDC {
		t.Fatalf("sdc -> %v err=%v", o, err)
	}
	if _, err := ParseOutcome("bogus"); err == nil {
		t.Fatal("bogus outcome must error")
	}
	if m, err := ParseFPM("wd"); err != nil || m != micro.FPMWD {
		t.Fatalf("wd -> %v err=%v", m, err)
	}
	if _, err := ParseFPM("bogus"); err == nil {
		t.Fatal("bogus FPM must error")
	}
}

// TestPreV3BlockReadsStaticFalse pins the legacy-read contract of the
// schema v3 column: a block written by a pre-v3 encoder (no colStatic —
// here also no colStratum, i.e. a v1 writer) must decode with
// StaticResolved false and Stratum "" on every record, with no
// migration step.
func TestPreV3BlockReadsStaticFalse(t *testing.T) {
	recs := randomRecords(300, 9)
	n := len(recs)
	idx := make([]int64, n)
	layer := make([]uint8, n)
	target := make([]string, n)
	coord := make([]uint64, n)
	entry := make([]int64, n)
	bit := make([]int64, n)
	slot := make([]int64, n)
	outcome := make([]uint8, n)
	visible := make([]bool, n)
	fpm := make([]uint8, n)
	contact := make([]uint64, n)
	live := make([]bool, n)
	early := make([]bool, n)
	prev := int64(0)
	for i, r := range recs {
		if i == 0 {
			idx[i] = int64(r.Index)
		} else {
			idx[i] = int64(r.Index) - prev - 1
		}
		prev = int64(r.Index)
		layer[i] = uint8(r.Layer)
		target[i] = r.Target
		coord[i] = r.Coord
		entry[i] = int64(r.Entry)
		bit[i] = int64(r.Bit)
		slot[i] = int64(r.Slot)
		outcome[i] = uint8(r.Outcome)
		visible[i] = r.Visible
		fpm[i] = uint8(r.FPM)
		contact[i] = r.Contact
		live[i] = r.Live
		early[i] = r.EarlyStop
	}
	b := colseg.NewBuilder(n)
	b.Zigzag(colIndex, idx)
	b.U8(colLayer, layer)
	b.Dict(colTarget, target)
	b.Uvarint(colCoord, coord)
	b.Zigzag(colEntry, entry)
	b.Zigzag(colBit, bit)
	b.Zigzag(colSlot, slot)
	b.U8(colOutcome, outcome)
	b.Bits(colVisible, visible)
	b.U8(colFPM, fpm)
	b.Uvarint(colContact, contact)
	b.Bits(colLive, live)
	b.Bits(colEarly, early)
	data := b.AppendTo(nil)

	c := newCursor(bytes.NewReader(data), nil, "legacy", n, Filter{})
	got, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d of %d", len(got), n)
	}
	for i, r := range got {
		if r.StaticResolved {
			t.Fatalf("record %d from a pre-v3 block reads StaticResolved", i)
		}
		if r.Stratum != "" {
			t.Fatalf("record %d from a pre-v2 block reads stratum %q", i, r.Stratum)
		}
		want := recs[i]
		want.StaticResolved = false
		want.Stratum = ""
		if r != want {
			t.Fatalf("record %d: %+v != %+v", i, r, want)
		}
	}
}
