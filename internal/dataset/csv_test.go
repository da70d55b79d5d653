package dataset

import (
	"bytes"
	"strings"
	"testing"
)

const sampleCSV = `age,salary,group
30,50000,A
45,80000,B
62,30000,A
`

func TestReadCSVInferred(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Schema()
	if s.Attr("age").Kind != Quantitative {
		t.Error("age should be inferred quantitative")
	}
	if s.Attr("group").Kind != Categorical {
		t.Error("group should be inferred categorical")
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	gi := s.MustIndex("group")
	if got := s.FormatValue(gi, tb.Row(1)[gi]); got != "B" {
		t.Errorf("row 1 group = %q, want B", got)
	}
}

func TestReadCSVWithSchema(t *testing.T) {
	s := demoSchema()
	tb, err := ReadCSV(strings.NewReader(sampleCSV), s)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 || tb.Schema() != s {
		t.Fatalf("Len=%d schema shared=%v", tb.Len(), tb.Schema() == s)
	}
}

func TestReadCSVSchemaMismatch(t *testing.T) {
	s := NewSchema(Attribute{Name: "only", Kind: Quantitative})
	if _, err := ReadCSV(strings.NewReader(sampleCSV), s); err == nil {
		t.Error("column-count mismatch should error")
	}
	s2 := NewSchema(
		Attribute{Name: "age", Kind: Quantitative},
		Attribute{Name: "WRONG", Kind: Quantitative},
		Attribute{Name: "group", Kind: Categorical},
	)
	if _, err := ReadCSV(strings.NewReader(sampleCSV), s2); err == nil {
		t.Error("column-name mismatch should error")
	}
}

func TestReadCSVBadNumber(t *testing.T) {
	s := demoSchema()
	bad := "age,salary,group\nthirty,50000,A\n"
	if _, err := ReadCSV(strings.NewReader(bad), s); err == nil {
		t.Error("unparsable quantitative value should error")
	}
}

// TestReadCSVNamesPhysicalLines: encoding/csv skips blank lines, so a
// record's ordinal is not its line. ReadCSV's errors name the line, as
// CSVStream's do, and name it once.
func TestReadCSVNamesPhysicalLines(t *testing.T) {
	xg := func() *Schema {
		return NewSchema(Attribute{Name: "x", Kind: Quantitative}, Attribute{Name: "g", Kind: Categorical})
	}
	for _, c := range []struct {
		content string
		schema  *Schema
		want    string // the error, or "" for a table of two rows
	}{
		{"x,g\n\n1,A\nnot,B\n", xg(), `dataset: CSV line 4, attribute "x": strconv.ParseFloat: parsing "not": invalid syntax`},
		{"x,g\n\n1,A\nnot,B\n", nil, ""}, // x is inferred categorical
		{"x,g\n1,A\n\n\n2\n", xg(), "dataset: reading CSV: record on line 5: wrong number of fields"},
		{"x,g\n1,A\n\n\n2\n", nil, "dataset: reading CSV: record on line 5: wrong number of fields"},
	} {
		tb, err := ReadCSV(strings.NewReader(c.content), c.schema)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q (schema %v): %v", c.content, c.schema != nil, err)
		case c.want == "" && tb.Len() != 2:
			t.Errorf("%q (schema %v): %d rows, want 2", c.content, c.schema != nil, tb.Len())
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%q (schema %v): error %v, want %s", c.content, c.schema != nil, err, c.want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	tb2, err := ReadCSV(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != tb.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", tb2.Len(), tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		for j := 0; j < tb.Schema().Len(); j++ {
			a := tb.Schema().FormatValue(j, tb.Row(i)[j])
			b := tb2.Schema().FormatValue(j, tb2.Row(i)[j])
			if a != b {
				t.Errorf("row %d col %d: %q vs %q", i, j, a, b)
			}
		}
	}
}

func TestInferSchemaDuplicateHeader(t *testing.T) {
	csv := "x,x\n1,2\n"
	tb, err := ReadCSV(strings.NewReader(csv), nil)
	if err != nil {
		t.Fatal(err)
	}
	names := tb.Schema().Names()
	if names[0] == names[1] {
		t.Errorf("duplicate headers not disambiguated: %v", names)
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a,b\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
	// Columns with no data are inferred categorical (no evidence of numbers).
	if tb.Schema().Attr("a").Kind != Categorical {
		t.Error("empty column should infer categorical")
	}
}
