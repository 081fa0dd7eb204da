package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchRefusesToClobber: bench with -o naming an existing file and
// no -force must fail before measuring anything and leave the file
// byte-identical. The benchmark list names no real workload, so a run
// that got as far as measuring would fail with a different error.
func TestBenchRefusesToClobber(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_existing.json")
	const body = "{\"keep\": true}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdBench([]string{"-o", path, "-bench", "no-such-benchmark"})
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("bench over an existing -o file: err = %v, want the refuse-to-clobber error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != body {
		t.Fatalf("existing report was modified: %q", got)
	}
}
