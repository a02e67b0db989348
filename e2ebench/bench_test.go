package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"convexcache/internal/cached"
)

// cachedBin is cmd/cached, built once for all tests by TestMain.
var cachedBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cachedBin = filepath.Join(dir, "cached")
	code := 1
	if out, err := exec.Command("go", "build", "-C", "..", "-o", cachedBin, "./cmd/cached").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cached: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchDef is the part of BENCHMARK.json the tests hold the output to.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(t *testing.T) benchDef {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchDef
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny shrinks a workload to a few batches per phase.
func tiny(sp spec) *spec {
	sp.Batch = 64
	sp.PoolBatches = 24
	sp.WarmupBatches = 12
	if sp.RebalanceEvery > 0 {
		sp.RebalanceEvery = 6
	}
	sp.LayerBatches = 16
	sp.Rounds = 2
	sp.BatchesPerSecond = 40
	if sp.CheckpointEvery > 0 {
		sp.SegmentBytes = 4096
		sp.CheckpointEvery = 256
	}
	return &sp
}

func tinyRun(t *testing.T, name string, trace bool, tamper func(string, any)) (*result, provenance) {
	t.Helper()
	opt := options{
		workload: name, seed: 7, seconds: 0.5, trace: trace,
		root: t.TempDir(), cached: cachedBin, tamper: tamper, sp: tiny(specs()[name]),
	}
	res, prov, err := run(opt)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res, prov
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced, and
// demands every check pass and every metric of BENCHMARK.json be printed
// with its unit.
func TestTinyRuns(t *testing.T) {
	c := readBenchDef(t)
	if len(c.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(c.Workloads), len(specs()))
	}
	for _, w := range c.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, prov := tinyRun(t, w.Name, trace, nil)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %s",
						trace, res.Correct, res.Attempted, res.Failed, prov.Error)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
					}
				}
				if len(prov.Checks) == 0 {
					t.Errorf("trace=%v: no checks recorded", trace)
				}
				if !trace && w.Name == "churn-wal" && !contains(prov.Checks, "recovered stats = last acknowledged") {
					t.Errorf("churn-wal ran no crash drill: %v", prov.Checks)
				}
				// Every RebalanceEvery-th batch of each round's warm-up and
				// measured phase is preceded by a controller step.
				sp := prov.Workload
				if sp.RebalanceEvery > 0 && !trace {
					perRound := (sp.WarmupBatches + sp.measuredBatches(prov.Seconds) - 1) / sp.RebalanceEvery
					if want := int64(sp.Rounds * perRound); prov.Client.Rebalance != want {
						t.Errorf("posted %d rebalances, want %d", prov.Client.Rebalance, want)
					}
				}
			}
		})
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestTamperedCountsFailTheRun proves the checks are live: an off-by-one
// hit total, a non-clean verify report and a wrong core count each fail
// the run instead of being reported.
func TestTamperedCountsFailTheRun(t *testing.T) {
	cases := []struct {
		name  string
		trace bool
		stage string
		edit  func(v any)
		want  string
	}{
		{"hits off by one", false, "client", func(v any) { v.(*tally).Hits[0]++ }, "client = stats"},
		{"verify not clean", false, "verify", func(v any) {
			rep := v.(*cached.VerifyReport)
			rep.Clean = false
			rep.Diffs = append(rep.Diffs, "tenant 0: hits live 1 replay 2")
		}, "verify clean"},
		{"core hits off by one", true, "core", func(v any) { *v.(*int64) += 1 }, "core counts"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tampered := false
			res, prov := tinyRun(t, "hot-read", tc.trace, func(stage string, v any) {
				if stage == tc.stage && !tampered {
					tampered = true
					tc.edit(v)
				}
			})
			if !tampered {
				t.Fatalf("stage %q never reached", tc.stage)
			}
			if res.Correct {
				t.Fatalf("tampered run reported correct")
			}
			if !strings.Contains(prov.Error, tc.want) {
				t.Fatalf("error %q does not name check %q", prov.Error, tc.want)
			}
		})
	}
}

// TestGenerationIsPartitioned checks that the input is a function of the
// seed and that each tenant's stream is its own: changing one tenant's
// spec leaves every other tenant's requests byte-identical.
func TestGenerationIsPartitioned(t *testing.T) {
	sp := *tiny(specs()["churn-wal"])
	a, err := generate(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.batches {
		if !bytes.Equal(a.batches[i], b.batches[i]) {
			t.Fatalf("batch %d differs between two generations from one seed", i)
		}
	}
	changed := sp
	changed.Streams = append([]string(nil), sp.Streams...)
	changed.Streams[1] = "uniform:7"
	c, err := generate(changed, 3)
	if err != nil {
		t.Fatal(err)
	}
	perTenant := func(in *input) map[string][]string {
		out := map[string][]string{}
		for _, body := range in.batches {
			for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
				f := strings.Fields(line)
				out[f[1]] = append(out[f[1]], line)
			}
		}
		return out
	}
	pa, pc := perTenant(a), perTenant(c)
	if strings.Join(pa["1"], "\n") == strings.Join(pc["1"], "\n") {
		t.Fatalf("changing tenant 1's stream did not change its requests")
	}
	for tenant, lines := range pa {
		if tenant != "1" && strings.Join(lines, "\n") != strings.Join(pc[tenant], "\n") {
			t.Fatalf("changing tenant 1's stream changed tenant %s's requests", tenant)
		}
	}
	if d, _ := generate(sp, 4); bytes.Equal(d.batches[0], a.batches[0]) {
		t.Fatalf("seeds 3 and 4 generated the same first batch")
	}
}
