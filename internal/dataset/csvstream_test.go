package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
