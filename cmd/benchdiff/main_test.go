package main

import (
	"os"
	"path/filepath"
	"testing"
)

// write drops a snapshot file and returns its path.
func write(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const committedBody = `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": 1000000000, "parallel": 1},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb", "wall_ns": 500},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 500}
    ]
  }]
}`

func freshBody(elapsed int64, srm1 string) string {
	return `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": ` + itoa(elapsed) + `, "parallel": 1},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "` + srm1 + `", "cesrm_fingerprint": "v1:bb", "wall_ns": 600},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 600}
    ]
  }]
}`
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPassWithinBudget(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_200_000_000, "v1:aa")) // +20% < 25%
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("within-budget comparison failed: %v", err)
	}
}

func TestFailOnWallTimeRegression(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_300_000_000, "v1:aa")) // +30% > 25%
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("30% wall-time regression passed a 25% gate")
	}
	// A looser explicit budget admits the same pair.
	if err := run([]string{"-committed", c, "-fresh", f, "-max-regression-pct", "50"}); err != nil {
		t.Fatalf("regression within explicit 50%% budget failed: %v", err)
	}
}

func TestFailOnFingerprintMismatch(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_000_000_000, "v1:ee"))
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("diverging fingerprint passed")
	}
	if err := run([]string{"-committed", c, "-fresh", f, "-ignore-fingerprints"}); err != nil {
		t.Fatalf("-ignore-fingerprints still failed: %v", err)
	}
}

// TestWallGateSkippedAcrossDispatchConfigs pins that wall time is only
// gated between snapshots taken at the same GOMAXPROCS.
func TestWallGateSkippedAcrossDispatchConfigs(t *testing.T) {
	c := write(t, "committed.json", perfBody(1_000_000_000, 0, 0, 2))
	f := write(t, "fresh.json", perfBody(9_000_000_000, 0, 0, 8))
	// 9x the committed wall time, but on 8 cores vs 2: the wall gate must
	// not fire because the runs measure different executions.
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("cross-config wall comparison gated: %v", err)
	}
	// The same core count on both sides gates again.
	f2 := write(t, "fresh2.json", perfBody(2_000_000_000, 0, 0, 2))
	if err := run([]string{"-committed", c, "-fresh", f2}); err == nil {
		t.Fatal("100% regression at matching GOMAXPROCS passed")
	}
	// An unrecorded core count matches anything.
	legacy := write(t, "legacy.json", perfBody(1_000_000_000, 0, 0, 0))
	if err := run([]string{"-committed", legacy, "-fresh", f}); err == nil {
		t.Fatal("9x regression against a snapshot without gomaxprocs passed")
	}
}

func TestLegacySingleScaleSchema(t *testing.T) {
	legacy := `{
  "seed": 1, "fingerprint_version": "v1",
  "scale": 0.01,
  "perf": {"suite_elapsed_ns": 1000000000, "parallel": 1},
  "traces": [
    {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}
  ]
}`
	c := write(t, "committed.json", legacy)
	f := write(t, "fresh.json", freshBody(1_100_000_000, "v1:aa"))
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("legacy schema comparison failed: %v", err)
	}
}

func TestRejectsDisjointScalesAndSeeds(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	other := `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{"scale": 0.1, "perf": {"suite_elapsed_ns": 1}, "traces": [
    {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}]}]
}`
	f := write(t, "fresh.json", other)
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("disjoint scales passed")
	}
	seed2 := write(t, "seed2.json", `{
  "seed": 2, "fingerprint_version": "v1",
  "runs": [{"scale": 0.01, "perf": {"suite_elapsed_ns": 1}, "traces": [
    {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}]}]
}`)
	if err := run([]string{"-committed", c, "-fresh", seed2}); err == nil {
		t.Fatal("mismatched seeds passed")
	}
}

// perfBody is a one-trace snapshot whose perf block carries the given
// wall time, suite_mallocs, suite_alloc_bytes and gomaxprocs (0 leaves
// a counter unrecorded).
func perfBody(elapsed, mallocs, allocBytes, procs int64) string {
	return `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": ` + itoa(elapsed) + `, "suite_mallocs": ` + itoa(mallocs) +
		`, "suite_alloc_bytes": ` + itoa(allocBytes) + `, "parallel": 1, "gomaxprocs": ` + itoa(procs) + `},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}
    ]
  }]
}`
}

// mallocBody is a one-trace snapshot carrying only suite_mallocs.
func mallocBody(mallocs int64) string { return perfBody(1_000_000_000, mallocs, 0, 0) }

// allocBody is a one-trace snapshot carrying only suite_alloc_bytes.
func allocBody(allocBytes int64) string { return perfBody(1_000_000_000, 0, allocBytes, 0) }

func TestMallocGatePassesWithinBudget(t *testing.T) {
	c := write(t, "committed.json", mallocBody(1_000_000))
	f := write(t, "fresh.json", mallocBody(1_049_000)) // +4.9% < 5%
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("within-budget malloc comparison failed: %v", err)
	}
	// Fewer allocations always pass.
	f2 := write(t, "fresh2.json", mallocBody(500_000))
	if err := run([]string{"-committed", c, "-fresh", f2}); err != nil {
		t.Fatalf("malloc improvement failed: %v", err)
	}
}

func TestMallocGateFailsOverBudget(t *testing.T) {
	c := write(t, "committed.json", mallocBody(1_000_000))
	f := write(t, "fresh.json", mallocBody(1_051_000)) // +5.1% > 5%
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("5.1% malloc regression passed the 5% gate")
	}
	// The budget is fixed: the wall and heap budget flags do not loosen it.
	if err := run([]string{"-committed", c, "-fresh", f,
		"-max-regression-pct", "10000", "-max-mem-regression-pct", "10000"}); err == nil {
		t.Fatal("malloc gate loosened by the wall/heap budget flags")
	}
}

func TestAllocBytesGatePassesWithinBudget(t *testing.T) {
	c := write(t, "committed.json", allocBody(1_000_000_000))
	f := write(t, "fresh.json", allocBody(1_049_000_000)) // +4.9% < 5%
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("within-budget alloc-bytes comparison failed: %v", err)
	}
	f2 := write(t, "fresh2.json", allocBody(500_000_000))
	if err := run([]string{"-committed", c, "-fresh", f2}); err != nil {
		t.Fatalf("alloc-bytes improvement failed: %v", err)
	}
}

func TestAllocBytesGateFailsOverBudget(t *testing.T) {
	c := write(t, "committed.json", allocBody(1_000_000_000))
	f := write(t, "fresh.json", allocBody(1_051_000_000)) // +5.1% > 5%
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("5.1% alloc-bytes regression passed the 5% gate")
	}
	if err := run([]string{"-committed", c, "-fresh", f,
		"-max-regression-pct", "10000", "-max-mem-regression-pct", "10000"}); err == nil {
		t.Fatal("alloc-bytes gate loosened by the wall/heap budget flags")
	}
}

// TestAllocationGatesSkipMissingField pins that a snapshot predating a
// counter skips that counter's gate without disabling the other.
func TestAllocationGatesSkipMissingField(t *testing.T) {
	doubled := write(t, "doubled.json", perfBody(1_000_000_000, 2_000_000, 2_000_000_000, 0))
	legacy := write(t, "legacy.json", committedBody)
	if err := run([]string{"-committed", legacy, "-fresh", doubled}); err != nil {
		t.Fatalf("allocation gates fired against a snapshot without the counters: %v", err)
	}
	mallocsOnly := write(t, "mallocs.json", mallocBody(1_000_000))
	if err := run([]string{"-committed", mallocsOnly, "-fresh", doubled}); err == nil {
		t.Fatal("doubled mallocs passed when only alloc bytes were unrecorded")
	}
	bytesOnly := write(t, "bytes.json", allocBody(1_000_000_000))
	if err := run([]string{"-committed", bytesOnly, "-fresh", doubled}); err == nil {
		t.Fatal("doubled alloc bytes passed when only mallocs were unrecorded")
	}
}

// TestAllocationGatesApplyAcrossCoreCounts pins that dispatch is serial:
// what a run allocates does not depend on GOMAXPROCS, so unlike wall
// time the allocation gates fire across differing core counts.
func TestAllocationGatesApplyAcrossCoreCounts(t *testing.T) {
	c := write(t, "committed.json", perfBody(1_000_000_000, 1_000_000, 1_000_000_000, 2))
	same := write(t, "same.json", perfBody(1_000_000_000, 1_000_000, 1_000_000_000, 8))
	if err := run([]string{"-committed", c, "-fresh", same}); err != nil {
		t.Fatalf("equal counters across core counts failed: %v", err)
	}
	mallocs := write(t, "mallocs.json", perfBody(1_000_000_000, 2_000_000, 1_000_000_000, 8))
	if err := run([]string{"-committed", c, "-fresh", mallocs}); err == nil {
		t.Fatal("doubled mallocs on another core count passed")
	}
	bytes := write(t, "bytes.json", perfBody(1_000_000_000, 1_000_000, 2_000_000_000, 8))
	if err := run([]string{"-committed", c, "-fresh", bytes}); err == nil {
		t.Fatal("doubled alloc bytes on another core count passed")
	}
}
