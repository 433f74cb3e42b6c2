package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The benchmark keeps a trajectory, not a snapshot: every whole-set run
// appends one entry to history/<commit>-<host>.json carrying enough
// about the host to judge whether two entries are comparable.

const historySchema = "shangrila-bench-history/1"

type hostInfo struct {
	Name      string `json:"name"`
	CPUModel  string `json:"cpu_model"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	OSArch    string `json:"os_arch"`
}

// metricSeries is one end-to-end metric on one workload: every sample and
// the statistics the gate reads.
type metricSeries struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"` // (q3-q1)/median
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

type workloadEntry struct {
	Why       string                  `json:"why"`
	WorkUnit  string                  `json:"work_unit"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	OpSamples int                     `json:"op_samples"` // timed slices per run
	Digests   []string                `json:"digests"`
	EndToEnd  map[string]metricSeries `json:"end_to_end"`
	PerLayer  map[string]layerValue   `json:"per_layer"`
}

type historyEntry struct {
	Schema    string                    `json:"schema"`
	Commit    string                    `json:"commit"`
	Dirty     bool                      `json:"dirty"`
	Time      string                    `json:"time"`
	Host      hostInfo                  `json:"host"`
	Seed      uint64                    `json:"seed"`
	SeedStep  uint64                    `json:"seed_step"`
	Seconds   int                       `json:"seconds"`
	Repeat    int                       `json:"repeat"`
	CalibMops float64                   `json:"calib_mops_p50"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type historyFile struct {
	Entries []*historyEntry `json:"entries"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPUModel: "unknown"}
	h.Name, _ = os.Hostname() // an unnamed host is recorded as ""
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit names the checkout: the short HEAD hash and whether the tree
// has uncommitted changes, or "nogit" outside a repository.
func gitCommit() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit", false
	}
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(st))) > 0
}

func fileSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// appendHistory adds e to history/<commit>-<host>.json.
func appendHistory(dir string, e *historyEntry) (string, error) {
	path := filepath.Join(dir, fileSafe(e.Commit)+"-"+fileSafe(e.Host.Name)+".json")
	hf, err := readHistory(path)
	if err != nil && !os.IsNotExist(err) {
		return "", err
	}
	if hf == nil {
		hf = &historyFile{}
	}
	hf.Entries = append(hf.Entries, e)
	b, err := json.MarshalIndent(hf, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readHistory(path string) (*historyFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hf historyFile
	if err := json.Unmarshal(b, &hf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(hf.Entries) == 0 {
		return nil, fmt.Errorf("%s: no history entries", path)
	}
	return &hf, nil
}

func newEntry(seed, seedStep uint64, seconds, repeat int) *historyEntry {
	commit, dirty := gitCommit()
	return &historyEntry{
		Schema: historySchema, Commit: commit, Dirty: dirty,
		Time: time.Now().UTC().Format(time.RFC3339), Host: readHost(),
		Seed: seed, SeedStep: seedStep, Seconds: seconds, Repeat: repeat,
		Workloads: map[string]*workloadEntry{},
	}
}

func newSeries(d metricDef, samples []float64) metricSeries {
	q1, q2, q3 := quartiles(samples)
	return metricSeries{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Samples: samples,
		Median: q2, Q1: q1, Q3: q3, Spread: spread(samples)}
}
