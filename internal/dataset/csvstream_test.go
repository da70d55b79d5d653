package dataset

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"arcs/internal/number"
)

func writeTempCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCSVStreamBasic(t *testing.T) {
	path := writeTempCSV(t, sampleCSV)
	schema, err := InferCSVSchema(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Attr("age").Kind != Quantitative || schema.Attr("group").Kind != Categorical {
		t.Fatal("schema inference wrong")
	}
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	n, err := Count(stream)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d", n)
	}
	// Second pass after Reset sees the same tuples.
	var ages []float64
	if err := ForEach(stream, func(tp Tuple) error {
		ages = append(ages, tp[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ages) != 3 || ages[0] != 30 || ages[2] != 62 {
		t.Errorf("ages = %v", ages)
	}
}

func TestCSVStreamHeaderMismatch(t *testing.T) {
	path := writeTempCSV(t, sampleCSV)
	wrong := NewSchema(
		Attribute{Name: "WRONG", Kind: Quantitative},
		Attribute{Name: "salary", Kind: Quantitative},
		Attribute{Name: "group", Kind: Categorical},
	)
	if _, err := OpenCSVStream(path, wrong); err == nil {
		t.Error("header mismatch should error")
	}
	short := NewSchema(Attribute{Name: "age", Kind: Quantitative})
	if _, err := OpenCSVStream(path, short); err == nil {
		t.Error("column-count mismatch should error")
	}
	if _, err := OpenCSVStream(path, nil); err == nil {
		t.Error("nil schema should error")
	}
}

func TestCSVStreamBadData(t *testing.T) {
	path := writeTempCSV(t, "age,group\nnotanumber,A\n")
	schema := NewSchema(
		Attribute{Name: "age", Kind: Quantitative},
		Attribute{Name: "group", Kind: Categorical},
	)
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err == nil {
		t.Error("unparsable value should error")
	}
}

func TestCSVStreamMissingFile(t *testing.T) {
	schema := NewSchema(Attribute{Name: "x", Kind: Quantitative})
	if _, err := OpenCSVStream("/nonexistent/file.csv", schema); err == nil {
		t.Error("missing file should error")
	}
	if _, err := InferCSVSchema("/nonexistent/file.csv", 10); err == nil {
		t.Error("missing file should error on inference")
	}
}

func TestCSVStreamNewCategoriesOnTheFly(t *testing.T) {
	// Inference sees only the first row; a later row introduces a new
	// label, which must be registered rather than rejected.
	path := writeTempCSV(t, "g\nA\nB\nC\n")
	schema, err := InferCSVSchema(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	n, err := Count(stream)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d", n)
	}
	if schema.Attr("g").NumCategories() != 3 {
		t.Errorf("categories = %d, want 3", schema.Attr("g").NumCategories())
	}
}

// TestInferCSVSchemaRegistersLabels: inference registers the prefix's
// categorical labels in first-appearance order, so a criterion has its
// values before a streaming pass; labels past the prefix are left for
// the stream to register.
func TestInferCSVSchemaRegistersLabels(t *testing.T) {
	path := writeTempCSV(t, "x,g,h\n1,b,u\n2,a,u\n3,b,v\n4,c,w\n")
	schema, err := InferCSVSchema(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := schema.Attr("g").Categories(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Errorf("g categories = %v, want [b a]", got)
	}
	if got := schema.Attr("h").Categories(); !reflect.DeepEqual(got, []string{"u", "v"}) {
		t.Errorf("h categories = %v, want [u v]", got)
	}
	if got := schema.Attr("x").NumCategories(); got != 0 {
		t.Errorf("quantitative x has %d categories", got)
	}
	// The codes match a full in-memory read of the same file.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tb, err := ReadCSV(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Schema().Attr("g").Categories(); !reflect.DeepEqual(got[:2], []string{"b", "a"}) {
		t.Errorf("ReadCSV g categories = %v, want b and a first", got)
	}
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := Count(stream); err != nil {
		t.Fatal(err)
	}
	if got := schema.Attr("g").Categories(); !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Errorf("g categories after streaming = %v, want [b a c]", got)
	}
}

func TestCSVStreamCloseThenReset(t *testing.T) {
	path := writeTempCSV(t, sampleCSV)
	schema, _ := InferCSVSchema(path, 10)
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close, Next returns EOF; Reset revives the stream.
	if _, err := stream.Next(); err == nil {
		t.Error("Next after Close should not succeed")
	}
	if err := stream.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil {
		t.Errorf("Next after Reset: %v", err)
	}
	stream.Close()
}

// TestCSVStreamParseErrorReportsFileLine: a parse error names the
// physical line of the row, like a field-count error, on the byte-level
// path and on the encoding/csv path alike.
func TestCSVStreamParseErrorReportsFileLine(t *testing.T) {
	for _, content := range []string{
		"\n\nx,g\n\n1,A\nnot,B\n",
		"\n\nx,g\n\n1,\"A\"\nnot,B\n",
	} {
		path := writeTempCSV(t, content)
		schema, err := InferCSVSchema(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := OpenCSVStream(path, schema)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := drainCSV(stream)
		stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s:6: attribute \"x\"", path)
		if len(evs) != 2 || evs[1].reason != "parse" || evs[1].row != 6 || !strings.Contains(evs[1].msg, want) {
			t.Errorf("%q: events %v, want a parse error at %s", content, evs, want)
		}
	}
}

// TestCSVStreamQuarantinedRowRegistersNoLabel: a row whose number fails
// to parse is quarantined without registering its categorical labels,
// wherever the bad field sits, so a typo cannot become a criterion value
// with no tuples. Both parsing paths.
func TestCSVStreamQuarantinedRowRegistersNoLabel(t *testing.T) {
	for _, content := range []string{
		"g,x,y\nA,1,2\ntypo,notanumber,3\nB,4,5\n",
		"g,x,y\nA,1,2\ntypo,4,notanumber\nB,4,5\n",
		"g,x,y\n\"A\",1,2\ntypo,notanumber,3\nB,4,5\n",
	} {
		path := writeTempCSV(t, content)
		schema, err := InferCSVSchema(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := OpenCSVStream(path, schema)
		if err != nil {
			t.Fatal(err)
		}
		r := NewResilient(stream, Retry{}, Quarantine{MaxBadRows: 1})
		tb, err := Materialize(r)
		stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := schema.Attr("g").Categories(); tb.Len() != 2 || !reflect.DeepEqual(got, []string{"A", "B"}) {
			t.Errorf("%q: %d rows, categories %q; want 2 rows, [A B]", content, tb.Len(), got)
		}
	}
}

// writeRowsCSV writes a clean x,g,y file of n rows.
func writeRowsCSV(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("x,g,y\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d.125,group%d,%d\n", i, i%3, -i)
	}
	return writeTempCSV(t, b.String())
}

// TestCSVStreamZeroAllocPerRow: a whole pass allocates a constant per
// chunk (the pass's open and header, the chunk's workers), never per
// row: passes over files 16x apart in rows differ by at most that.
func TestCSVStreamZeroAllocPerRow(t *testing.T) {
	pass := func(path string) (allocs float64, chunks int) {
		schema, err := InferCSVSchema(path, 100)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := OpenCSVStream(path, schema)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		allocs = testing.AllocsPerRun(5, func() {
			if err := ForEach(stream, func(Tuple) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return allocs, int(st.Size()/csvChunkSize) + 1
	}
	small, _ := pass(writeRowsCSV(t, 10_000))
	big, chunks := pass(writeRowsCSV(t, 160_000))
	if chunks < 3 {
		t.Fatalf("big file spans %d chunks, want at least 3", chunks)
	}
	perChunk := 4 * float64(runtime.GOMAXPROCS(0))
	if big-small > perChunk*float64(chunks) {
		t.Errorf("a pass over 160k rows allocates %.1f objects vs %.1f over 10k, more than %.0f per chunk over %d chunks — parsing allocates per row",
			big, small, perChunk, chunks)
	}
	t.Logf("allocations per pass: %.1f over 10k rows, %.1f over 160k rows (%d chunks)", small, big, chunks)
}

// unsizedSource hides a source's Len, as a CSVStream has none.
type unsizedSource struct{ Source }

// TestMaterializeZeroAllocPerRow: Materialize allocates per slab of
// rows, never per row. Beyond one allocation per slab it makes a
// constant few: the table, the first slab's six doublings from 64 rows
// and, for the unsized source, the wrapper. The slab list also doubles,
// and that is the one count that grows with the rows: a 24-byte header
// per slab, so nine allocations at a million rows. The collector is off
// while it counts, since a cycle makes allocations of its own.
func TestMaterializeZeroAllocPerRow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	schema := NewSchema(
		Attribute{Name: "x", Kind: Quantitative},
		Attribute{Name: "y", Kind: Quantitative},
	)
	for _, n := range []int{5*slabRows + 7, 33 * slabRows} {
		src := NewFuncSource(schema, n, func(i int, out Tuple) { out[0], out[1] = float64(i), -float64(i) })
		slabs := (n + slabRows - 1) / slabRows
		listGrowths := 0
		var list [][]float64
		for range slabs {
			if len(list) == cap(list) {
				listGrowths++
			}
			list = append(list, nil)
		}
		for _, c := range []struct {
			name string
			src  Source
			want int // allocations beyond the slabs and the slab list
		}{
			{"sized", src, 1 + 6},
			{"unsized", unsizedSource{src}, 1 + 6 + 1},
		} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Materialize(c.src); err != nil {
					t.Fatal(err)
				}
			})
			if want := float64(slabs + listGrowths + c.want); allocs > want {
				t.Errorf("%s: Materialize of %d rows made %.0f allocations, want at most %.0f (%d slabs, %d slab-list growths)",
					c.name, n, allocs, want, slabs, listGrowths)
			}
		}
	}
}

// TestCSVStreamAbandonedLeavesNoGoroutines: parsing is fork-join inside
// Next, so a pass abandoned mid-chunk and closed leaves no goroutine
// behind.
func TestCSVStreamAbandonedLeavesNoGoroutines(t *testing.T) {
	path := writeRowsCSV(t, 80_000)
	schema, err := InferCSVSchema(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40_000; i++ {
		if _, err := stream.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	// A worker that has signalled completion may still be exiting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d; stacks:\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCSVStreamIOErrorIsFatal: a read that fails mid-pass ends the pass
// with an error naming the file and line, not with a RowError a
// quarantine could skip.
func TestCSVStreamIOErrorIsFatal(t *testing.T) {
	path := writeRowsCSV(t, 160_000)
	schema, err := InferCSVSchema(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	stream.file.Close() // the next chunk's read fails
	r := NewResilient(stream, Retry{}, Quarantine{MaxBadRows: -1})
	for {
		_, err = r.Next()
		if err != nil {
			break
		}
	}
	if AsRowError(err) != nil || !errors.Is(err, os.ErrClosed) || !strings.HasPrefix(err.Error(), "dataset: "+path+":") {
		t.Errorf("read failure mid-pass = %v, want a fatal dataset: %s:<line>: error wrapping os.ErrClosed", err, path)
	}
}

// TestCSVStreamKernelBoundaries: every edge case, first on its line and
// last on it, reads as in the strconv-based encoding/csv reference —
// values, RowErrors and all — both through the chunk parser and in a
// quoted file, which CSVStream parses with encoding/csv.
func TestCSVStreamKernelBoundaries(t *testing.T) {
	var plain, quoted strings.Builder
	plain.WriteString("x,g,y\n0,A,0\n")
	quoted.WriteString("x,g,y\n0,\"A\",0\n")
	for _, s := range number.EdgeCases {
		if strings.ContainsAny(s, ",\r") {
			continue // not a field of an unquoted line
		}
		fmt.Fprintf(&plain, "%s,A,1\n1,B,%s\n", s, s)
		fmt.Fprintf(&quoted, "%s,\"A\",1\n1,\"B\",%s\n", s, s)
	}
	diffCSV(t, writeTempCSV(t, plain.String()), 1)
	diffCSV(t, writeTempCSV(t, quoted.String()), 1)
}

// FuzzParseFloat is TestCSVStreamKernelBoundaries for one field at a
// time: any field, first on its line and last on it, bare and quoted,
// reads as in the strconv-based encoding/csv reference.
func FuzzParseFloat(f *testing.F) {
	for _, s := range number.EdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.ContainsAny(s, ",\"\r\n") {
			return // not a field of an unquoted line
		}
		diffCSV(t, writeTempCSV(t, fmt.Sprintf("x,g,y\n0,A,0\n%s,A,1\n1,B,%s\n", s, s)), 1)
		diffCSV(t, writeTempCSV(t, fmt.Sprintf("x,g,y\n0,\"A\",0\n%s,\"A\",1\n1,\"B\",%s\n", s, s)), 1)
	})
}
