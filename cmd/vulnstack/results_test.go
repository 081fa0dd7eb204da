package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulnstack/internal/results"
)

// runResults runs the results command in-process and returns what it
// printed to stdout.
func runResults(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = cmdResults(args)
	w.Close()
	os.Stdout = stdout
	return <-out, err
}

// resultsStore saves one ten-record campaign, three of them SDC, into a
// fresh store and returns the store directory and the campaign key.
func resultsStore(t *testing.T) (string, results.Key) {
	t.Helper()
	dir := t.TempDir()
	st, err := results.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := results.Key{Layer: "micro", Target: "sha/seed=1", Config: "A72", Struct: "RF", Seed: 2021}
	recs := make([]results.Record, 10)
	for i := range recs {
		recs[i] = results.Record{Index: i, Layer: results.LayerMicro, Target: "RF", Bit: i}
		if i%3 == 1 {
			recs[i].Outcome = results.SDC
		}
	}
	if err := st.Save(k, recs); err != nil {
		t.Fatal(err)
	}
	return dir, k
}

func TestResultsList(t *testing.T) {
	dir, k := resultsStore(t)
	out, err := runResults(t, "list", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, k.ID()) || !strings.Contains(out, "1 campaigns") {
		t.Fatalf("list output lacks the campaign:\n%s", out)
	}
	if strings.Contains(out, "FORMAT") {
		t.Fatalf("list still prints a FORMAT column:\n%s", out)
	}
}

func TestResultsShow(t *testing.T) {
	dir, k := resultsStore(t)
	out, err := runResults(t, "show", "-store", dir, "-id", k.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign " + k.ID() + " (schema v3)", "records 10 (", "SDC", "(3)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("show output lacks %q:\n%s", want, out)
		}
	}
	out, err = runResults(t, "show", "-store", dir, "-id", k.ID(), "-outcome", "sdc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "records 3 of 10 matching the filter") {
		t.Fatalf("filtered show output:\n%s", out)
	}
}

func TestResultsExportFiltered(t *testing.T) {
	dir, k := resultsStore(t)
	out, err := runResults(t, "export", "-store", dir, "-id", k.ID(), "-outcome", "sdc")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := results.ReadJSONL(strings.NewReader(out), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("exported %d records, want the 3 SDC ones:\n%s", len(recs), out)
	}
	for _, r := range recs {
		if r.Outcome != results.SDC || r.Index%3 != 1 {
			t.Fatalf("exported a record outside the filter: %+v", r)
		}
	}
}

func TestResultsErrors(t *testing.T) {
	dir, _ := resultsStore(t)
	if _, err := runResults(t, "list"); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("missing -store: err=%v", err)
	}
	if _, err := runResults(t, "compact", "-store", dir); err == nil || !strings.Contains(err.Error(), `unknown verb "compact"`) {
		t.Fatalf("compact verb: err=%v", err)
	}
}

// TestResultsRefusesPreColumnar: a store holding a manifest written
// before the columnar store fails list and show loudly, naming the
// campaign, instead of hiding it.
func TestResultsRefusesPreColumnar(t *testing.T) {
	dir, _ := resultsStore(t)
	old := results.Key{Layer: "soft", Target: "qsort/seed=1", Seed: 7}
	manifest := fmt.Sprintf(`{"schema":2,"key":{"layer":"soft","target":%q,"seed":7},"n":4}`, old.Target)
	if err := os.WriteFile(filepath.Join(dir, old.ID()+".json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"list", "-store", dir},
		{"show", "-store", dir, "-id", old.ID()},
	} {
		out, err := runResults(t, args...)
		if err == nil || !strings.Contains(err.Error(), old.ID()) || !strings.Contains(err.Error(), "pre-columnar") {
			t.Fatalf("%v: err=%v, want the pre-columnar refusal naming %s", args, err, old.ID())
		}
		if strings.Contains(out, old.ID()) {
			t.Fatalf("%v printed the refused campaign:\n%s", args, out)
		}
	}
}

// TestResultsListRefusesUnsupportedManifest: a manifest that parses but
// carries a newer schema or an unknown format makes `results list` fail
// (a non-zero exit) with an error naming the campaign, instead of
// listing the store without it.
func TestResultsListRefusesUnsupportedManifest(t *testing.T) {
	for _, tail := range []string{`"schema":4,"n":4,"format":"columnar"`, `"schema":3,"n":4,"format":"parquet"`} {
		dir, _ := resultsStore(t)
		k := results.Key{Layer: "soft", Target: "qsort/seed=1", Seed: 7}
		manifest := fmt.Sprintf(`{"key":{"layer":"soft","target":%q,"seed":7},%s}`, k.Target, tail)
		if err := os.WriteFile(filepath.Join(dir, k.ID()+".json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runResults(t, "list", "-store", dir)
		if err == nil || !strings.Contains(err.Error(), k.ID()) {
			t.Fatalf("%s: list err=%v, want an error naming %s; printed:\n%s", manifest, err, k.ID(), out)
		}
	}
}
