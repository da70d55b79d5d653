package dataset

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// refCSVStream is the reference CSVStream is checked against: a whole
// file read by encoding/csv, record by record, the way CSVStream read it
// before it parsed chunks itself — with two fixes applied: a parse error
// reports the physical line of its field, not the record ordinal, and a
// row whose quantitative field fails registers none of its categorical
// labels.
type refCSVStream struct {
	path   string
	schema *Schema
	file   *os.File
	cr     *csv.Reader
	buf    Tuple
	row    int
}

func openRefCSVStream(path string, schema *Schema) (*refCSVStream, error) {
	s := &refCSVStream{path: path, schema: schema, buf: make(Tuple, schema.Len())}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *refCSVStream) Schema() *Schema { return s.schema }

func (s *refCSVStream) Reset() error {
	s.Close()
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	cr := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		f.Close()
		return fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != s.schema.Len() {
		f.Close()
		return fmt.Errorf("dataset: CSV has %d columns, schema has %d attributes", len(header), s.schema.Len())
	}
	for i, name := range header {
		if s.schema.At(i).Name != name {
			f.Close()
			return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, s.schema.At(i).Name)
		}
	}
	s.file, s.cr, s.row = f, cr, 1
	return nil
}

func (s *refCSVStream) Next() (Tuple, error) {
	if s.cr == nil {
		return nil, io.EOF
	}
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	s.row++
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			reason := "malformed"
			if errors.Is(err, csv.ErrFieldCount) {
				reason = "field-count"
			}
			return nil, &RowError{Path: s.path, Row: pe.Line, Reason: reason, Err: err}
		}
		return nil, fmt.Errorf("dataset: %s:%d: %w", s.path, s.row, err)
	}
	for i, field := range rec {
		if a := s.schema.At(i); a.Kind == Quantitative {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				line, _ := s.cr.FieldPos(i)
				return nil, &RowError{Path: s.path, Row: line, Reason: "parse",
					Err: fmt.Errorf("attribute %q: %w", a.Name, err)}
			}
			s.buf[i] = v
		}
	}
	for i, field := range rec {
		if a := s.schema.At(i); a.Kind == Categorical {
			code, err := a.CategoryCode(field)
			if err != nil {
				line, _ := s.cr.FieldPos(i)
				return nil, &RowError{Path: s.path, Row: line, Reason: "category",
					Err: fmt.Errorf("attribute %q: %w", a.Name, err)}
			}
			s.buf[i] = float64(code)
		}
	}
	return s.buf, nil
}

func (s *refCSVStream) Close() error {
	s.cr = nil
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
