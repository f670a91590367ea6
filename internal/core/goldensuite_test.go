package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/netio"
)

// goldenSuiteFile pins a hash of every Optimize output over a fixed
// corpus of generated nets and option mixes. A refactor or speedup of
// the DP must leave each suite, its reconstructed assignments and its
// Stats byte-identical; any drift shows up as a diff against this file.
const goldenSuiteFile = "testdata/golden_suites.json"

// updateGoldenEnv regenerates the golden file when set. Do that only
// for a change that is meant to move the DP's output.
const updateGoldenEnv = "MSRNET_UPDATE_GOLDEN"

// goldenMixes are the option mixes the corpus nets are solved under.
// Wire sizing multiplies the candidate sets by the width choices per
// edge, so that mix runs on the smallest nets only (maxPins) to keep
// the test within a few seconds.
var goldenMixes = []struct {
	name    string
	opt     core.Options
	maxPins int
}{
	{"repeaters", core.Options{Repeaters: true}, 0},
	{"sizing", core.Options{SizeDrivers: true}, 0},
	{"both", core.Options{Repeaters: true, SizeDrivers: true}, 0},
	{"widths", core.Options{Repeaters: true, WireWidths: []float64{1, 2}, WireCostPerUm: 0.01}, 5},
	{"naive", core.Options{Repeaters: true, Pruner: core.PruneNaive}, 0},
	{"coarse", core.Options{Repeaters: true, CoarseEps: 0.02}, 0},
}

// suiteDigest hashes everything Optimize returns that a caller can
// observe: each suite point's exact cost and ARD, its reconstructed
// assignment in the wire format, and the Stats JSON.
func suiteDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	h := sha256.New()
	for _, s := range res.Suite {
		fmt.Fprintf(h, "%s %s\n",
			strconv.FormatFloat(s.Cost, 'g', -1, 64), strconv.FormatFloat(s.ARD, 'g', -1, 64))
		a, err := json.Marshal(netio.EncodeAssignment(s.Cost, s.ARD, s.Assignment()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(a, '\n'))
	}
	st, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(st)
	return hex.EncodeToString(h.Sum(nil))
}

// TestOptimizeGoldenSuites locks Optimize's output on the corpus to the
// committed golden digests.
func TestOptimizeGoldenSuites(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse multiply-adds, which moves the last bits
		// of the delay arithmetic.
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	tech := buslib.Default()
	got := map[string]string{}
	for _, pins := range []int{5, 8, 10} {
		for seed := int64(1); seed <= 3; seed++ {
			// Sparse insertion points keep the sizing mixes tractable
			// while every wire still gets a repeater site.
			p := netgen.Defaults(pins)
			p.MaxInsertionSpacingUm = 5000
			tr, err := netgen.Generate(seed, p)
			if err != nil {
				t.Fatalf("generate seed=%d pins=%d: %v", seed, pins, err)
			}
			rt := tr.RootAt(tr.Terminals()[0])
			for _, mix := range goldenMixes {
				if mix.maxPins > 0 && pins > mix.maxPins {
					continue
				}
				name := fmt.Sprintf("gen-seed%d-pins%d/%s", seed, pins, mix.name)
				res, err := core.Optimize(rt, tech, mix.opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[name] = suiteDigest(t, res)
			}
		}
	}

	if os.Getenv(updateGoldenEnv) != "" {
		// encoding/json writes map keys sorted, so the file is stable.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSuiteFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSuiteFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden suites rewritten: %s (%d entries)", goldenSuiteFile, len(got))
		return
	}

	data, err := os.ReadFile(goldenSuiteFile)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with %s=1 go test): %v", updateGoldenEnv, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus has %d runs, golden file has %d", len(got), len(want))
	}
	for name, h := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file", name)
		} else if h != w {
			t.Errorf("%s: Optimize output drifted\n  got:  %s\n  want: %s", name, h, w)
		}
	}
}
