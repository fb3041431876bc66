package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchFile is the part of BENCHMARK.json the steadiness mode reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySetOffset separates the seeds of the second set from the first.
const steadySetOffset = 1000

// runSteady runs each workload (or only the one named) in two sets of runs
// runs, each run a child process on its own seed. For every end-to-end
// metric it prints each set's median and quartiles and whether the sets
// agree within the metric's bound. A traced run per workload then gives the
// tracing overhead on ops_per_s.
func runSteady(root, only string, seed int64, seconds, runs int) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	allOK := true
	for _, w := range bf.Workloads {
		if only != "" && only != "all" && w.Name != only {
			continue
		}
		var sets [2][]metrics
		for set := range sets {
			for i := 0; i < runs; i++ {
				s := seed + int64(set*steadySetOffset+i)
				out, err := runChild(self, w.Name, s, seconds, 0)
				if err != nil {
					return err
				}
				if !out.Correct {
					return fmt.Errorf("%s seed %d: run not correct", w.Name, s)
				}
				sets[set] = append(sets[set], out.Metrics)
			}
		}
		fmt.Printf("%s: %d runs per set, seeds %d.. and %d.., %ds each\n", w.Name, runs, seed, seed+steadySetOffset, seconds)
		fmt.Printf("  %-16s %-5s %6s | %12s %12s %12s %7s | %12s %7s | %7s %s\n",
			"metric", "unit", "bound", "A q1", "A median", "A q3", "spread", "B median", "spread", "B vs A", "verdict")
		var untracedOps []float64
		for _, m := range bf.EndToEnd {
			var vals [2][]float64
			for set := range sets {
				for _, r := range sets[set] {
					vals[set] = append(vals[set], r[m.Name].Value)
				}
			}
			if m.Name == "ops_per_s" {
				untracedOps = vals[0]
			}
			q1, medA, q3 := quartiles(vals[0])
			b1, medB, b3 := quartiles(vals[1])
			spreadA, spreadB := (q3-q1)/medA, (b3-b1)/medB
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound:
				verdict = "SPREAD>BOUND"
			case worse > m.Bound:
				verdict = "SETS DISAGREE"
			case m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound/3:
				verdict = "ok (spread>bound/3)"
			}
			if verdict != "ok" && verdict != "ok (spread>bound/3)" {
				allOK = false
			}
			fmt.Printf("  %-16s %-5s %6.3f | %12.6g %12.6g %12.6g %7.3f | %12.6g %7.3f | %+7.3f %s\n",
				m.Name, m.Unit, m.Bound, q1, medA, q3, spreadA, medB, spreadB, worse, verdict)
		}
		if _, err := runChild(self, w.Name, seed, seconds, 1); err != nil {
			return err
		}
		traced, err := readResult(root, w.Name, seed, true)
		if err != nil {
			return err
		}
		_, med, _ := quartiles(untracedOps)
		fmt.Printf("  tracing overhead: traced ops_per_s %.6g vs untraced median %.6g (%+.3f); ledger:",
			traced.EndToEnd["ops_per_s"].Value, med, traced.EndToEnd["ops_per_s"].Value/med-1)
		for _, r := range traced.Ledger {
			fmt.Printf(" %s %.1f%%", r.Layer, 100*r.Share)
		}
		fmt.Println()
	}
	if !allOK {
		return fmt.Errorf("a spread or the shift between the two sets exceeds its bound")
	}
	fmt.Println("steady: both sets agree within every bound")
	return nil
}

// runChild runs one benchmark run in a child process and parses its result
// line.
func runChild(self, workload string, seed int64, seconds, trace int) (*output, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %v\n%s", workload, seed, trace, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("%s seed %d: parsing result line: %w", workload, seed, err)
	}
	return &out, nil
}

func readResult(root, workload string, seed int64, trace bool) (*runResult, error) {
	data, err := os.ReadFile(resultPath(root, workload, seed, trace))
	if err != nil {
		return nil, err
	}
	var res runResult
	return &res, json.Unmarshal(data, &res)
}

// quartiles returns the first quartile, median and third quartile of xs by
// Python's statistics.quantiles(xs, n=4), the default "exclusive" method.
func quartiles(xs []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	n := len(data)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return data[0], data[0], data[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
