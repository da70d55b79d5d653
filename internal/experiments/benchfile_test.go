package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"arcs/internal/core"
)

// phaseRecord is an ingest-style history record with one phase.
func phaseRecord(sha string, at time.Time, secs float64) BenchRecord {
	return BenchRecord{
		GitSHA:    sha,
		Timestamp: at.UTC().Format(time.RFC3339),
		Tuples:    1_000_000,
		Workers:   4,
		Crossover: 500_000,
		Phases:    []core.PhaseTiming{{Name: "ingest-dense-1000000", Seconds: secs}},
	}
}

// TestBenchFileAppendAccumulates: successive appends add history
// records instead of overwriting, in order and with every field.
func TestBenchFileAppendAccumulates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	first, second := phaseRecord("aaaa111", t0, 0.5), phaseRecord("bbbb222", t0.Add(time.Hour), 0.4)
	for _, rec := range []BenchRecord{first, second} {
		if err := AppendBenchRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}

	bf, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.History) != 2 {
		t.Fatalf("history has %d records, want 2", len(bf.History))
	}
	if !reflect.DeepEqual(bf.History[0], first) || !reflect.DeepEqual(bf.History[1], second) {
		t.Errorf("history = %+v, want %+v then %+v", bf.History, first, second)
	}
	if bf.History[0].Timestamp != "2026-08-05T12:00:00Z" {
		t.Errorf("history timestamp = %q, want RFC3339 UTC", bf.History[0].Timestamp)
	}
	newest, err := LastRecord(bf)
	if err != nil {
		t.Fatal(err)
	}
	if got := newest.Phases[0].Seconds; got != 0.4 {
		t.Errorf("newest record's phase = %g s, want the second run's 0.4", got)
	}
}

// TestBenchFileDuplicateGitSHA: the trajectory is append-only even when
// the same commit runs twice (a CI re-run, or a build run against itself) —
// both records land in the history, distinguished by timestamp.
func TestBenchFileDuplicateGitSHA(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_quality.json")
	t0 := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		rec := BenchRecord{
			GitSHA:    "same111",
			Timestamp: t0.Add(time.Duration(i) * time.Minute).UTC().Format(time.RFC3339),
			Quality:   []QualityRow{{Function: 1, ErrorPct: float64(8 + i)}},
		}
		if err := AppendBenchRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	bf, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.History) != 2 {
		t.Fatalf("history has %d records, want both same-SHA runs", len(bf.History))
	}
	if bf.History[0].GitSHA != "same111" || bf.History[1].GitSHA != "same111" {
		t.Errorf("SHAs = %q, %q", bf.History[0].GitSHA, bf.History[1].GitSHA)
	}
	if bf.History[0].Timestamp == bf.History[1].Timestamp {
		t.Error("same-SHA records should still differ by timestamp")
	}
	oldRec, newRec, err := LastTwoRecords(bf)
	if err != nil {
		t.Fatal(err)
	}
	if oldRec.Quality[0].ErrorPct != 8 || newRec.Quality[0].ErrorPct != 9 {
		t.Errorf("records out of order: %+v, %+v", oldRec.Quality, newRec.Quality)
	}
}

// TestBenchFileEmptyFile: an empty file (a `touch`ed placeholder, or
// what a non-atomic writer would have left after a crash) reads as a
// missing trajectory instead of a parse error, so the next append
// recovers it.
func TestBenchFileEmptyFile(t *testing.T) {
	for name, content := range map[string]string{"empty": "", "whitespace": "\n  \n"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_quality.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			bf, err := ReadBenchFile(path)
			if err != nil {
				t.Fatalf("empty file should read as empty trajectory: %v", err)
			}
			if len(bf.History) != 0 {
				t.Fatalf("empty file parsed as %+v", bf)
			}
			if err := AppendBenchRecord(path, BenchRecord{GitSHA: "rec0"}); err != nil {
				t.Fatalf("append over empty file: %v", err)
			}
			bf, err = ReadBenchFile(path)
			if err != nil || len(bf.History) != 1 {
				t.Fatalf("recovered trajectory = %+v, %v", bf, err)
			}
		})
	}
}

// TestBenchFileCorrupted: corrupted JSON errors on read and append —
// the append-only history must never be silently replaced by an empty
// one — and the failed append leaves the corrupt file untouched.
func TestBenchFileCorrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_quality.json")
	corrupt := `{"history": [{"git_sha": "aaa", "timestamp":`
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil {
		t.Fatal("corrupted trajectory read without error")
	}
	if err := AppendBenchRecord(path, BenchRecord{GitSHA: "bbb"}); err == nil {
		t.Fatal("append to corrupted trajectory succeeded")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != corrupt {
		t.Errorf("failed append modified the corrupt file: %q", data)
	}
}

// TestBenchFileAtomicWrite: WriteBenchFile goes through a tmpfile +
// rename, so the destination always holds complete JSON and no tmpfile
// debris survives a successful write.
func TestBenchFileAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_quality.json")
	if err := WriteBenchFile(path, &BenchFile{History: []BenchRecord{{GitSHA: "aaa"}}}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("tmpfile %q left behind", e.Name())
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}
	// Writing into a missing directory fails without leaving debris.
	if err := WriteBenchFile(filepath.Join(dir, "missing", "x.json"), &BenchFile{}); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

// TestBenchFileConcurrentAppend: concurrent appenders race on the
// read-modify-write (appends may be lost — the callers are sequential
// CI steps, not a database), but the atomic rename guarantees every
// reader always sees a complete, parseable trajectory.
func TestBenchFileConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_quality.json")
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := BenchRecord{GitSHA: fmt.Sprintf("sha%d", i), Timestamp: "2026-08-08T00:00:00Z"}
			if err := AppendBenchRecord(path, rec); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	bf, err := ReadBenchFile(path)
	if err != nil {
		t.Fatalf("trajectory unreadable after concurrent appends: %v", err)
	}
	if len(bf.History) < 1 || len(bf.History) > writers {
		t.Fatalf("history has %d records after %d concurrent appends", len(bf.History), writers)
	}
}

// TestBenchFileRecordOnlyAppend: appending a record to a missing file
// creates a trajectory whose only top-level key is its history.
func TestBenchFileRecordOnlyAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trace.json")
	rec := BenchRecord{Timestamp: "2026-08-05T00:00:00Z", Tuples: 9,
		Phases: []core.PhaseTiming{{Name: "run", Seconds: 0.1}}}
	if err := AppendBenchRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	bf, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.History) != 1 || bf.History[0].Tuples != 9 {
		t.Fatalf("history = %+v, want the one appended record", bf.History)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top["history"] == nil {
		t.Errorf("top-level keys of %s, want only history", data)
	}
}
