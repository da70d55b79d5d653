package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"arcs/internal/core"
)

// BenchRecord is one appended run in a BENCH_*.json trajectory, keyed by
// git SHA and timestamp so successive CI runs accumulate into a history
// instead of overwriting each other.
type BenchRecord struct {
	// GitSHA is the short commit hash the run was built from, when
	// discoverable.
	GitSHA string `json:"git_sha,omitempty"`
	// Timestamp is the run's wall-clock time, RFC 3339.
	Timestamp string `json:"timestamp"`
	// Tuples and Workers mirror the report's workload parameters.
	Tuples  int `json:"tuples,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Crossover is the ingest experiment's scaling headline: the
	// smallest measured size at which sharded ingest beat the dense
	// build (0 = never). The diff gate fails a run whose crossover
	// regresses to 0 while the predecessor had one.
	Crossover int `json:"crossover,omitempty"`
	// Phases holds per-phase wall-clock timings.
	Phases []core.PhaseTiming `json:"phases,omitempty"`
	// Quality carries per-function mining-quality rows for records
	// appended from a quality sweep (BENCH_quality.json). The diff gate
	// compares rows matched by function number.
	Quality []QualityRow `json:"quality,omitempty"`
}

// BenchFile is the on-disk schema of BENCH_*.json: History accumulates
// one record per run.
type BenchFile struct {
	History []BenchRecord `json:"history,omitempty"`
}

// ReadBenchFile loads a BENCH_*.json file. A missing or empty file
// yields an empty BenchFile (an interrupted writer's truncated target,
// or a fresh `touch`, should not wedge the trajectory forever).
// Corrupted JSON is an error — history is append-only and silently
// dropping it would erase the trajectory on the next write.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return &BenchFile{}, nil
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	return &bf, nil
}

// WriteBenchFile writes the bench file as indented JSON, atomically: a
// tmpfile in the target's directory is renamed over the destination, so
// a reader (or a crash) mid-write never observes a truncated
// trajectory.
func WriteBenchFile(path string, bf *BenchFile) error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// AppendBenchRecord appends a record to the file's history.
func AppendBenchRecord(path string, rec BenchRecord) error {
	bf, err := ReadBenchFile(path)
	if err != nil {
		return err
	}
	bf.History = append(bf.History, rec)
	return WriteBenchFile(path, bf)
}

// GitSHA returns the short commit hash of the working tree, or "" when
// git is unavailable (detached environments, release tarballs).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
