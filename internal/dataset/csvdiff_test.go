package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// csvEvent is one Next result: a tuple, or a RowError's reason, row and
// message.
type csvEvent struct {
	tuple  Tuple
	reason string
	row    int
	msg    string
}

func (e csvEvent) String() string {
	if e.tuple != nil {
		return fmt.Sprint(e.tuple)
	}
	return fmt.Sprintf("%s@%d: %s", e.reason, e.row, e.msg)
}

// sameEvent compares tuples bit for bit, so NaN matches NaN.
func sameEvent(a, b csvEvent) bool {
	if len(a.tuple) != len(b.tuple) || (a.tuple == nil) != (b.tuple == nil) {
		return false
	}
	for i := range a.tuple {
		if math.Float64bits(a.tuple[i]) != math.Float64bits(b.tuple[i]) {
			return false
		}
	}
	return a.reason == b.reason && a.row == b.row && a.msg == b.msg
}

// drainCSV reads src to io.EOF, recording every tuple and RowError. It
// stops at the first other error.
func drainCSV(src Source) ([]csvEvent, error) {
	var evs []csvEvent
	for {
		t, err := src.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			re := AsRowError(err)
			if re == nil {
				return evs, err
			}
			evs = append(evs, csvEvent{reason: re.Reason, row: re.Row, msg: re.Error()})
			continue
		}
		evs = append(evs, csvEvent{tuple: t.Clone()})
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffCSV checks CSVStream against refCSVStream on the file at path,
// each over its own copy of the schema InferCSVSchema gives from
// sampleRows rows: the Open error, the sequence of tuples and RowErrors
// (reason, row, message), the final categories of every attribute, and
// a quarantining Resilient pass (materialized rows, stats and the rows
// it reports).
func diffCSV(t *testing.T, path string, sampleRows int) {
	t.Helper()
	schema, err := InferCSVSchema(path, sampleRows)
	if err != nil {
		return // inference is shared code; both streams would get the same error
	}
	gotSchema, wantSchema := schema.Clone(), schema.Clone()
	got, gotErr := OpenCSVStream(path, gotSchema)
	want, wantErr := openRefCSVStream(path, wantSchema)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("open: got %v, want %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	defer got.Close()
	defer want.Close()

	gotEv, gotErr := drainCSV(got)
	wantEv, wantErr := drainCSV(want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("pass error: got %v, want %v", gotErr, wantErr)
	}
	for i := 0; i < len(gotEv) || i < len(wantEv); i++ {
		switch {
		case i >= len(gotEv):
			t.Fatalf("event %d: stream ended, want %v", i, wantEv[i])
		case i >= len(wantEv):
			t.Fatalf("event %d: got %v, want end of stream", i, gotEv[i])
		case !sameEvent(gotEv[i], wantEv[i]):
			t.Fatalf("event %d: got %v, want %v", i, gotEv[i], wantEv[i])
		}
	}
	sameCategories(t, gotSchema, wantSchema)

	type quarantined struct {
		reason string
		row    int
		msg    string
	}
	resilient := func(src Source) (*Table, *Resilient, []quarantined, error) {
		var log []quarantined
		r := NewResilient(src, Retry{}, Quarantine{MaxBadRows: -1, OnBad: func(reason string, row int, err error) {
			log = append(log, quarantined{reason, row, err.Error()})
		}})
		tb, err := Materialize(r)
		return tb, r, log, err
	}
	gotTb, gotR, gotLog, gotErr := resilient(got)
	wantTb, wantR, wantLog, wantErr := resilient(want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("resilient pass: got %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if gotTb.Len() != wantTb.Len() {
		t.Fatalf("resilient pass: %d rows, want %d", gotTb.Len(), wantTb.Len())
	}
	for i := 0; i < wantTb.Len(); i++ {
		if !sameEvent(csvEvent{tuple: gotTb.Row(i)}, csvEvent{tuple: wantTb.Row(i)}) {
			t.Fatalf("resilient row %d: got %v, want %v", i, gotTb.Row(i), wantTb.Row(i))
		}
	}
	if g, w := fmt.Sprint(gotR.Stats()), fmt.Sprint(wantR.Stats()); g != w {
		t.Fatalf("resilient stats: got %s, want %s", g, w)
	}
	if g, w := fmt.Sprint(gotLog), fmt.Sprint(wantLog); g != w {
		t.Fatalf("quarantined rows:\ngot  %s\nwant %s", g, w)
	}
	sameCategories(t, gotSchema, wantSchema)
}

func sameCategories(t *testing.T, got, want *Schema) {
	t.Helper()
	for i := 0; i < want.Len(); i++ {
		if g, w := got.At(i).Categories(), want.At(i).Categories(); fmt.Sprintf("%q", g) != fmt.Sprintf("%q", w) {
			t.Fatalf("attribute %q categories: got %q, want %q", want.At(i).Name, g, w)
		}
	}
}

// csvDiffCases are small inputs for the differential test and the fuzz
// corpus: every shape of row CSVStream must read as encoding/csv does.
// sample is the inference prefix; 1 keeps x quantitative when later rows
// are dirty.
var csvDiffCases = []struct {
	name, content string
	sample        int
}{
	{"clean", "x,g,y\n1,A,2\n3,B,4\n", 10},
	{"blank lines", "x,g\n1,A\n\n\n2,B\n\n", 10},
	{"crlf", "x,g\r\n1,A\r\n\r\n2,B\r\n", 10},
	{"no final newline", "x,g\n1,A\n2,B", 10},
	{"no final newline, cr", "x,g\n1,A\n2,B\r", 10},
	{"doubled cr", "x,g\n1,A\r\r\n2,B\r\r", 10},
	{"lone cr", "x,g\n1,A\rB\n\r\n2,B\n", 10},
	{"blank lines before header", "\n\r\n\nx,g\n1,A\n", 10},
	{"header only", "x,g\n", 10},
	{"header only, no newline", "x,g", 10},
	{"empty", "", 10},
	{"blank lines only", "\n\n\r\n", 10},
	{"field count", "x,g\n1,A\n2\n3,B,C\n,\n4,B\n", 1},
	{"whitespace line", "x,g\n1,A\n  \n2,B\n", 1},
	{"parse", "x,g\n1,A\nnot,B\n2,A\n", 1},
	{"parse, blank lines", "\n\nx,g\n\n1,A\nnot,B\n", 1},
	{"empty fields", "x,g\n1,A\n,B\n2,\n", 1},
	{"range", "x,g\n1,A\n1e999,B\n-1e999,A\n", 1},
	{"long number", "x,g\n1,A\n1.0000000000000000000000000000000000001,B\n" +
		strings.Repeat("9", 40) + ",A\n", 1},
	{"non-finite", "x,g\n1,A\nNaN,B\nInf,A\n-Inf,B\n+inf,A\ninfinity,B\n", 1},
	{"fault left of category", "x,g,y\n1,A,2\nbad,LEFT,3\n4,B,5\n", 1},
	{"fault right of category", "x,g,y\n1,A,2\n3,RIGHT,bad\n4,B,5\n", 1},
	{"late label", "x,g\n1,A\n2,A\n3,Z\n4,Y\n5,Z\n", 1},
	{"quoted", "x,g\n1,\"A\"\n2,\"B,C\"\n3,\"multi\nline\"\nbad,\"Q\"\n4,A,extra\n5,\"\"\"q\"\"\"\n", 1},
	{"quoted, blank lines", "\n\nx,g\n\n1,\"A\"\nnot,B\n", 1},
	{"quoted header", "\"x\",\"g\"\n1,A\n", 10},
	{"bare quote", "x,g\n1,A\"B\n2,B\n3,\"unterminated\n", 1},
	{"duplicate header", "a,a\n1,2\n", 10},
	{"trailing comma header", "x,g,\n1,A,\n", 10},
}

func TestCSVStreamMatchesReference(t *testing.T) {
	for _, c := range csvDiffCases {
		t.Run(c.name, func(t *testing.T) {
			diffCSV(t, writeTempCSV(t, c.content), c.sample)
		})
	}
}

// TestCSVStreamHeaderErrorsMatchReference: a schema the header
// contradicts fails Open with the reference's error.
func TestCSVStreamHeaderErrorsMatchReference(t *testing.T) {
	schema := NewSchema(
		Attribute{Name: "x", Kind: Quantitative},
		Attribute{Name: "g", Kind: Categorical},
	)
	for _, content := range []string{
		"x,h\n1,A\n", "x\n1\n", "x,g,y\n1,A,2\n", "", "\n\n", "\"x\",\"h\"\n1,A\n", "x,g\"\n1,A\n",
	} {
		path := writeTempCSV(t, content)
		_, gotErr := OpenCSVStream(path, schema)
		_, wantErr := openRefCSVStream(path, schema)
		if gotErr == nil || errText(gotErr) != errText(wantErr) {
			t.Errorf("%q: got %v, want %v", content, gotErr, wantErr)
		}
	}
}

// dirtyCSV writes about size bytes of x,g,y rows, a quarter of them
// dirty in every way the differential test knows (plus every row within
// 300 bytes of a chunk-size multiple), after a clean 100-row prefix that
// keeps x and y quantitative under inference. A positive quoteAt puts a
// quoted field on the first row past that offset, and malformed quoting
// after it.
func dirtyCSV(size, quoteAt int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("x,g,y\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d,A,%d\n", i, -i)
	}
	num := func() string { return strconv.FormatFloat(rng.NormFloat64()*1e4, 'g', -1, 64) }
	for k := 0; b.Len() < size; k++ {
		if quoteAt > 0 && b.Len() >= quoteAt {
			fmt.Fprintf(&b, "%s,\"B\",%s\n%s,\"multi\nline\",%s\n", num(), num(), num(), num())
			quoteAt = 0
		}
		off := b.Len() % csvChunkSize
		if off > 300 && off < csvChunkSize-300 && rng.Intn(4) != 0 {
			fmt.Fprintf(&b, "%s,%s,%s\n", num(), []string{"A", "B", "C"}[rng.Intn(3)], num())
			continue
		}
		switch rng.Intn(14) {
		case 0:
			b.WriteString("\n")
		case 1:
			b.WriteString("\r\n")
		case 2:
			fmt.Fprintf(&b, "%s,A\n", num())
		case 3:
			fmt.Fprintf(&b, "%s,A,%s,%s\n", num(), num(), num())
		case 4:
			fmt.Fprintf(&b, "bad%d,LEFT%d,%s\n", k, k, num())
		case 5:
			fmt.Fprintf(&b, "%s,RIGHT%d,bad%d\n", num(), k, k)
		case 6:
			fmt.Fprintf(&b, "NaN,A,%s\n", num())
		case 7:
			fmt.Fprintf(&b, "%s,B,-Inf\n", num())
		case 8:
			fmt.Fprintf(&b, "%s,B,%s\r\n", num(), num())
		case 9:
			fmt.Fprintf(&b, "%s,LATE%d,%s\n", num(), rng.Intn(50), num())
		case 10:
			b.WriteString(",,\n")
		case 11:
			b.WriteString(" \n")
		case 12:
			fmt.Fprintf(&b, "%s,,%s\n", num(), num())
		case 13:
			if quoteAt == 0 && rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%s,A\"B,%s\n", num(), num()) // a bare quote: malformed
			} else {
				fmt.Fprintf(&b, "1e999,C,%s\n", num())
			}
		}
	}
	return b.Bytes()
}

func writeTempBytes(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCSVStreamMatchesReferenceMultiChunk runs the differential test on
// inputs of more than two chunks, with dirty rows on chunk boundaries
// and, at several worker counts, on part boundaries: all on the
// byte-level path, with a switch to encoding/csv partway through the
// second chunk, and with a line longer than a chunk.
func TestCSVStreamMatchesReferenceMultiChunk(t *testing.T) {
	size := 2*csvChunkSize + csvChunkSize/2
	long := dirtyCSV(size, 0, 3)
	at := bytes.IndexByte(long[csvChunkSize+1000:], '\n') + csvChunkSize + 1001
	long = append(long[:at:at], append([]byte("1,"+strings.Repeat("L", csvChunkSize+10)+",2\n"), long[at:]...)...)
	// The first chunk ends exactly at its last byte, so the switch
	// starts at a row of the wrong width: the reader must take the width
	// from the schema, not from that row.
	var edge bytes.Buffer
	edge.WriteString("x,g,y\n\n")
	for edge.Len() < csvChunkSize-100 {
		edge.WriteString("1.5,A,2\n\n")
	}
	fmt.Fprintf(&edge, "3,B,%s\n", strings.Repeat("4", csvChunkSize-edge.Len()-5))
	edge.WriteString("5,A\n6,\"B\",7\n8,C,9,10\nbad,D,11\n12,E,13")
	inputs := []struct {
		name    string
		content []byte
		procs   []int // worker counts, which move the part boundaries
	}{
		{"byte-level", dirtyCSV(size, 0, 1), []int{1, 2, 3, 8}},
		{"switch mid-file", dirtyCSV(size, csvChunkSize+csvChunkSize/2, 2), []int{3}},
		{"switch at a chunk boundary", edge.Bytes(), []int{3}},
		{"line longer than a chunk", long, []int{3}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		path := writeTempBytes(t, in.content)
		for _, procs := range in.procs {
			t.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				diffCSV(t, path, 100)
			})
		}
	}
}

// FuzzCSVStream checks CSVStream against the encoding/csv reference on
// arbitrary input, at an inference prefix of 1 to 8 rows.
func FuzzCSVStream(f *testing.F) {
	for _, c := range csvDiffCases {
		f.Add(c.content, uint8(c.sample))
	}
	f.Add(string(dirtyCSV(8<<10, 4<<10, 1)), uint8(1))
	f.Fuzz(func(t *testing.T, content string, sample uint8) {
		diffCSV(t, writeTempCSV(t, content), int(sample%8)+1)
	})
}
