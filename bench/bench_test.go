package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is BENCHMARK.json's metric list.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// runSmall runs one workload on a 3-region suite and returns its stdout and
// parsed JSON line.
func runSmall(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-regions", "3", "-seconds", "0.1"}, args...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return out.String(), res
}

var digestLine = regexp.MustCompile(`(?m)^digests: .*$`)

func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sweep-cold", "search-mp", "serve-mixed"} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			out1, res := runSmall(t, "-workload", w, "-seed", "7")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range decl.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(m.Name)+` .* `+regexp.QuoteMeta(m.Unit)+`$`).MatchString(out1) {
					t.Errorf("end-to-end metric %s (%s) not printed with its unit", m.Name, m.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(decl.EndToEnd) {
				t.Errorf("%d metrics in the JSON line, %d declared", len(res.Metrics), len(decl.EndToEnd))
			}
			if !strings.Contains(out1, "error_rate") {
				t.Error("error_rate not printed")
			}

			out2, _ := runSmall(t, "-workload", w, "-seed", "7")
			if d1, d2 := digestLine.FindString(out1), digestLine.FindString(out2); d1 == "" || d1 != d2 {
				t.Errorf("same seed, different digests:\n%s\n%s", d1, d2)
			}

			traceFile := filepath.Join(t.TempDir(), "trace.json")
			_, tres := runSmall(t, "-workload", w, "-seed", "7", "-trace", "1", "-trace-out", traceFile)
			for _, m := range decl.PerLayer {
				if got, ok := tres.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s) missing from the traced run", m.Name, m.Unit)
				}
			}
			if tres.Metrics["sim.instrs"].Value <= 0 {
				t.Error("replay simulated no instructions")
			}
			var spans struct{ Spans []span }
			if b, err := os.ReadFile(traceFile); err != nil {
				t.Error(err)
			} else if err := json.Unmarshal(b, &spans); err != nil || len(spans.Spans) == 0 {
				t.Errorf("trace file holds no spans (err %v)", err)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "sweep-cold", "-trace", "2"},
		{"-workload", "sweep-cold", "-seconds", "0"},
		{"-workload", "sweep-cold", "-regions", "50"},
		{"-workload", "search-mp", "-regions", "3", "-update"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d with stdout %q, want a failure and no result", args, code, out.String())
		}
	}
}
