package dataset

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"arcs/internal/number"
)

// ReadCSV parses comma-separated data with a header row into a Table.
//
// If schema is nil, one is inferred: a column whose every value parses as
// a float is Quantitative, otherwise Categorical. When a schema is given,
// the header must contain exactly the schema's attributes in order, and
// values are parsed according to the declared kinds (categorical labels
// are registered in the schema's dictionaries as they appear).
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	headerCopy := append([]string(nil), header...)

	// encoding/csv skips blank lines, so a record's ordinal is not its
	// line: keep each record's physical line for the errors below.
	var records [][]string
	var lines []int
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err) // a *csv.ParseError names its line
		}
		line, _ := cr.FieldPos(0)
		records = append(records, append([]string(nil), rec...))
		lines = append(lines, line)
	}

	if schema == nil {
		schema = inferSchema(headerCopy, records)
	} else {
		if schema.Len() != len(headerCopy) {
			return nil, fmt.Errorf("dataset: CSV has %d columns, schema has %d attributes",
				len(headerCopy), schema.Len())
		}
		for i, name := range headerCopy {
			if schema.At(i).Name != name {
				return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q",
					i, name, schema.At(i).Name)
			}
		}
	}

	tb := NewTable(schema)
	for rowNo, rec := range records {
		if len(rec) != schema.Len() {
			return nil, fmt.Errorf("dataset: CSV line %d has %d fields, want %d", lines[rowNo], len(rec), schema.Len())
		}
		tp := tb.grow()
		for i, field := range rec {
			a := schema.At(i)
			switch a.Kind {
			case Quantitative:
				v, err := number.Parse(field)
				if err != nil {
					return nil, fmt.Errorf("dataset: CSV line %d, attribute %q: %w", lines[rowNo], a.Name, err)
				}
				tp[i] = v
			case Categorical:
				code, err := a.CategoryCode(field)
				if err != nil {
					return nil, err
				}
				tp[i] = float64(code)
			}
		}
	}
	return tb, nil
}

func inferSchema(header []string, records [][]string) *Schema {
	s := &Schema{byName: make(map[string]int, len(header))}
	for col, name := range header {
		kind := Quantitative
		seen := false
		for _, rec := range records {
			if col >= len(rec) {
				continue
			}
			seen = true
			if _, err := number.Parse(rec[col]); err != nil {
				kind = Categorical
				break
			}
		}
		if !seen {
			kind = Categorical
		}
		// Header names may repeat in malformed files; disambiguate.
		n := name
		for i := 2; ; i++ {
			if _, dup := s.byName[n]; !dup {
				break
			}
			n = fmt.Sprintf("%s_%d", name, i)
		}
		s.MustAdd(n, kind)
	}
	return s
}

// WriteCSV streams src as comma-separated text with a header row,
// rendering categorical codes back to their labels.
func WriteCSV(w io.Writer, src Source) error {
	return WriteCSVContext(context.Background(), w, src)
}

// WriteCSVContext is WriteCSV with checkpointed cancellation: a canceled
// context stops the pass at the next checkpoint, leaving the output
// truncated at a row boundary. A background context adds no per-row cost.
func WriteCSVContext(ctx context.Context, w io.Writer, src Source) error {
	cw := csv.NewWriter(w)
	schema := src.Schema()
	if err := cw.Write(schema.Names()); err != nil {
		return err
	}
	rec := make([]string, schema.Len())
	err := ForEachContext(ctx, src, func(t Tuple) error {
		if len(t) != schema.Len() {
			return ErrSchemaMismatch
		}
		for i, v := range t {
			a := schema.At(i)
			if a.Kind == Categorical {
				rec[i] = a.Category(int(v))
			} else {
				rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		return cw.Write(rec)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
