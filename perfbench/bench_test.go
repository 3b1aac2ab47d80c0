package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"hbmvolt/internal/service"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metric tables in main.go and the workload registry are the
// contract BENCHMARK.json states; they must not drift apart.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// buildBenchmark compiles the command once per test binary run.
func buildBenchmark(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "perfbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runBenchmark runs one workload and returns its parsed last line and
// exit error.
func runBenchmark(t *testing.T, bin string, args ...string) (*result, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	res, perr := lastResult(out)
	if perr != nil {
		t.Fatalf("%v: %v (exit: %v)", args, perr, err)
	}
	return res, err
}

// TestSelfTest runs every workload briefly, untraced and traced, and
// checks that each prints every listed metric with its unit, that the
// correctness gate passes, and that end-to-end metrics are never 0.
func TestSelfTest(t *testing.T) {
	seconds := "4"
	if testing.Short() {
		seconds = "1"
	}
	b := loadBenchmarkJSON(t)
	bin := buildBenchmark(t)
	for _, w := range b.Workloads {
		for trace, listed := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				res, err := runBenchmark(t, bin, "--workload", w.Name, "--seed", "3",
					"--seconds", seconds, "--trace", strconv.Itoa(trace))
				if err != nil {
					t.Fatalf("exit: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(listed) {
					t.Errorf("%d metrics printed, %d listed", len(res.Metrics), len(listed))
				}
				for _, m := range listed {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestGateTripsOnCorruptedResult corrupts one result per workload in
// transfer (campaign-repro: one artifact byte on disk); the command
// must report the run incorrect and exit non-zero.
func TestGateTripsOnCorruptedResult(t *testing.T) {
	bin := buildBenchmark(t)
	for _, w := range []string{"sweep-cold", "sweep-warm", "fleet-cold", "campaign-repro"} {
		t.Run(w, func(t *testing.T) {
			res, err := runBenchmark(t, bin, "--workload", w, "--seed", "3", "--seconds", "1", "--corrupt", "1")
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("exit: %v, want a non-zero exit", err)
			}
			if res.Correct || res.Failed < 1 {
				t.Fatalf("correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
			}
		})
	}
}

// TestCheckSweepRejectsMutations checks the gate on a real payload: it
// passes as served and fails after a one-byte change to the request
// echo or to any byte when compared with its reference.
func TestCheckSweepRejectsMutations(t *testing.T) {
	p, err := prepare(coldRequest(newRand(5, streamOpen), 12345))
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{})
	defer srv.Close()
	job, _, _, err := srv.Manager().Submit(p.req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := job.Wait(context.Background()); err != nil || st != service.StateDone {
		t.Fatalf("job: %v %v", st, err)
	}
	payload := job.Payload()
	if err := checkSweep(p, payload); err != nil {
		t.Fatalf("unmutated payload rejected: %v", err)
	}
	if err := checkSame(p, payload, payload); err != nil {
		t.Fatalf("unmutated payload differs from itself: %v", err)
	}

	// Change the first echoed port to another digit.
	echo := []byte(`"ports":[` + strconv.Itoa(p.req.Ports[0]))
	at := bytes.Index(payload, echo)
	if at < 0 {
		t.Fatalf("payload has no %s", echo)
	}
	mutated := append([]byte(nil), payload...)
	d := &mutated[at+len(echo)-1]
	*d = '0' + (*d-'0'+1)%10
	if err := checkSweep(p, mutated); err == nil {
		t.Error("payload with a mutated port echo passed checkSweep")
	}
	for _, i := range []int{0, len(payload) / 2, len(payload) - 2} {
		m := append([]byte(nil), payload...)
		m[i] ^= 0x01
		if err := checkSame(p, m, payload); err == nil {
			t.Errorf("payload with byte %d flipped passed checkSame", i)
		}
	}
}
