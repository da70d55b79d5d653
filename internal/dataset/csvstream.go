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

// CSVStream is a tuple source that reads a CSV file from disk on every
// pass instead of materializing it, preserving ARCS's constant-memory
// property for data sets that do not fit in RAM (the regime of the
// paper's Figure 15, where C4.5 dies of virtual-memory depletion and
// ARCS keeps streaming). Reset reopens the file.
//
// The schema must be known up front — either supplied by the caller or
// inferred by InferCSVSchema from a bounded prefix of the file — because
// a streaming pass cannot look ahead. Categorical labels not seen during
// inference are registered on the fly.
type CSVStream struct {
	path   string
	schema *Schema

	file *os.File
	cr   *csv.Reader
	buf  Tuple
	row  int
}

// OpenCSVStream opens path for streaming with the given schema. The
// header row is validated against the schema on every pass.
func OpenCSVStream(path string, schema *Schema) (*CSVStream, error) {
	if schema == nil {
		return nil, fmt.Errorf("dataset: OpenCSVStream requires a schema; use InferCSVSchema first")
	}
	s := &CSVStream{path: path, schema: schema, buf: make(Tuple, schema.Len())}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// InferCSVSchema reads up to sampleRows data rows from the file and
// infers a schema the same way ReadCSV does (numeric columns become
// quantitative). The categorical labels the prefix shows are registered
// in first-appearance order — the codes a full read assigns them — so a
// criterion's values are known before a streaming pass starts. Pass the
// result to OpenCSVStream.
func InferCSVSchema(path string, sampleRows int) (*Schema, error) {
	if sampleRows <= 0 {
		sampleRows = 1000
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	headerCopy := append([]string(nil), header...)
	var records [][]string
	for len(records) < sampleRows {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Malformed rows don't invalidate inference — the streaming
			// pass reports them per-row (see Next); skip them here so one
			// dirty row cannot block opening the file.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				continue
			}
			return nil, err
		}
		records = append(records, append([]string(nil), rec...))
	}
	schema := inferSchema(headerCopy, records)
	for col, a := range schema.attrs {
		if a.Kind != Categorical {
			continue
		}
		for _, rec := range records {
			if col < len(rec) {
				_, _ = a.CategoryCode(rec[col]) // cannot fail: a is categorical
			}
		}
	}
	return schema, nil
}

// Schema implements Source.
func (s *CSVStream) Schema() *Schema { return s.schema }

// Reset implements Source: it reopens the file and re-validates the
// header. A close error on the previous pass's handle is reported
// rather than dropped — on some filesystems close is where write-back
// and revalidation errors surface.
func (s *CSVStream) Reset() error {
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		s.cr = nil
		if err != nil {
			return fmt.Errorf("dataset: closing %s before reset: %w", s.path, err)
		}
	}
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
	s.file = f
	s.cr = cr
	s.row = 1
	return nil
}

// Next implements Source. The returned tuple is reused between calls.
//
// Errors confined to one row — malformed CSV syntax, a wrong field
// count, an unparseable cell — come back as *RowError carrying the
// file:line position; the stream stays positioned so the following Next
// yields the next row. I/O errors propagate unwrapped and are fatal.
func (s *CSVStream) Next() (Tuple, error) {
	if s.cr == nil {
		return nil, io.EOF
	}
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		s.row++
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			// csv.Reader keeps its position after a parse error, so the
			// row is skippable. Its error already carries "line N" —
			// prefer its line accounting (it counts physical lines,
			// which diverge from records on embedded newlines).
			reason := "malformed"
			if errors.Is(err, csv.ErrFieldCount) {
				reason = "field-count"
			}
			return nil, &RowError{Path: s.path, Row: pe.Line, Reason: reason, Err: err}
		}
		return nil, fmt.Errorf("dataset: %s:%d: %w", s.path, s.row, err)
	}
	s.row++
	if len(rec) != s.schema.Len() {
		return nil, &RowError{Path: s.path, Row: s.row, Reason: "field-count",
			Err: fmt.Errorf("has %d fields, want %d", len(rec), s.schema.Len())}
	}
	for i, field := range rec {
		a := s.schema.At(i)
		switch a.Kind {
		case Quantitative:
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, &RowError{Path: s.path, Row: s.row, Reason: "parse",
					Err: fmt.Errorf("attribute %q: %w", a.Name, err)}
			}
			s.buf[i] = v
		case Categorical:
			code, err := a.CategoryCode(field)
			if err != nil {
				return nil, &RowError{Path: s.path, Row: s.row, Reason: "category",
					Err: fmt.Errorf("attribute %q: %w", a.Name, err)}
			}
			s.buf[i] = float64(code)
		}
	}
	return s.buf, nil
}

// Close releases the underlying file. The stream is unusable afterwards
// except via Reset, which reopens it.
func (s *CSVStream) Close() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	s.cr = nil
	return err
}
