package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"arcs/internal/number"
)

// csvChunkSize is the read granularity of a CSVStream: the file is read
// into one reused buffer of this size, and each chunk is cut at its last
// newline. A line longer than this sends the rest of the file through
// encoding/csv.
const csvChunkSize = 1 << 20

// CSVStream is a tuple source that reads a CSV file from disk on every
// pass instead of materializing it, preserving ARCS's constant-memory
// property for data sets that do not fit in RAM (the regime of the
// paper's Figure 15, where C4.5 dies of virtual-memory depletion and
// ARCS keeps streaming). Reset reopens the file.
//
// The schema must be known up front — either supplied by the caller or
// inferred by InferCSVSchema from a bounded prefix of the file — because
// a streaming pass cannot look ahead. Categorical labels not seen during
// inference are registered on the fly, in row order.
//
// The file is parsed in chunks of csvChunkSize bytes. A chunk without a
// '"' byte is split into runtime.GOMAXPROCS(0) line-aligned parts that
// are parsed concurrently, and Next hands their rows out in file order;
// it parses the next chunk only when the current one is used up and
// waits for its workers before returning, so no goroutine outlives a
// Next call. From the first chunk that holds a quote, or a line longer
// than a chunk, the rest of the pass goes through encoding/csv, which
// alone parses quoted input.
type CSVStream struct {
	path   string
	schema *Schema
	kinds  []Kind // attribute kinds in schema order
	cats   []int  // positions of the categorical attributes

	file *os.File
	buf  []byte // read buffer, reused across chunks and passes
	n    int    // valid bytes in buf
	off  int    // first byte in buf not yet handed to a parse
	end  int    // end of the current line-aligned chunk
	eof  bool   // the file has been read to its end
	line int    // physical lines before the rows being handed out

	parts  []csvPart // the current chunk's parts, in file order
	nparts int       // parts in use for the current chunk
	cur    int       // part whose rows Next is handing out

	// cr is non-nil once the pass has switched to encoding/csv; lineBase
	// is the number of lines before the switch point, which cr counts
	// from.
	cr       *csv.Reader
	lineBase int
	out      Tuple // the tuple the encoding/csv path fills
}

// csvPart is one worker's share of a chunk: the rows of a line-aligned
// byte range, with their quantitative fields parsed and their
// categorical fields kept as byte ranges for Next to resolve in row
// order.
type csvPart struct {
	data   []byte      // line-aligned slice of the chunk
	vals   []float64   // schema-width values per good row
	labels []csvSpan   // categorical fields per good row, into data
	bad    []csvBadRow // rejected rows, in row order
	rows   int         // records parsed, good and bad
	lines  int         // physical lines in data

	next, good, nbad int // hand-out cursors: record, good row, bad row
}

// csvSpan is a field's byte range within its part's data.
type csvSpan struct{ lo, hi int32 }

// csvBadRow is a record that failed in a worker. Next builds its
// RowError once the lines before the part are known.
type csvBadRow struct {
	row  int   // record index within the part
	line int   // 1-based line within the part
	col  int   // attribute whose field failed to parse; -1 for a wrong field count
	err  error // the strconv error
}

// OpenCSVStream opens path for streaming with the given schema. The
// header row is validated against the schema on every pass.
func OpenCSVStream(path string, schema *Schema) (*CSVStream, error) {
	if schema == nil {
		return nil, fmt.Errorf("dataset: OpenCSVStream requires a schema; use InferCSVSchema first")
	}
	s := &CSVStream{path: path, schema: schema, out: make(Tuple, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		k := schema.At(i).Kind
		s.kinds = append(s.kinds, k)
		if k == Categorical {
			s.cats = append(s.cats, i)
		}
	}
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
	if err := s.Close(); err != nil {
		return fmt.Errorf("dataset: closing %s before reset: %w", s.path, err)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	s.file = f
	if s.buf == nil {
		s.buf = make([]byte, csvChunkSize)
	}
	s.n, s.off, s.end, s.eof, s.line = 0, 0, 0, false, 0
	header, err := s.readHeader()
	if err == nil {
		err = s.checkHeader(header)
	}
	if err != nil {
		s.Close()
		return err
	}
	return nil
}

// readHeader returns the first non-blank record of the file.
func (s *CSVStream) readHeader() ([]string, error) {
	for {
		if s.off == s.end {
			if s.eof {
				return nil, fmt.Errorf("dataset: reading CSV header: %w", io.EOF)
			}
			if err := s.fill(); err != nil {
				return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
			}
		}
		if s.cr != nil {
			s.cr.FieldsPerRecord = 0 // take the width from the header
			header, err := s.cr.Read()
			if err != nil {
				return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
			}
			return header, nil
		}
		for s.off < s.end {
			ln := s.buf[s.off:s.end]
			if i := bytes.IndexByte(ln, '\n'); i >= 0 {
				ln = ln[:i+1]
			}
			s.off += len(ln)
			s.line++
			if ln = trimEOL(ln); len(ln) > 0 {
				return strings.Split(string(ln), ","), nil
			}
		}
	}
}

func (s *CSVStream) checkHeader(header []string) error {
	if len(header) != s.schema.Len() {
		return fmt.Errorf("dataset: CSV has %d columns, schema has %d attributes", len(header), s.schema.Len())
	}
	for i, name := range header {
		if s.schema.At(i).Name != name {
			return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, s.schema.At(i).Name)
		}
	}
	return nil
}

// trimEOL strips a line's '\n' and one '\r' before it (or before the end
// of the file), as encoding/csv does.
func trimEOL(ln []byte) []byte {
	if n := len(ln); n > 0 && ln[n-1] == '\n' {
		ln = ln[:n-1]
	}
	if n := len(ln); n > 0 && ln[n-1] == '\r' {
		ln = ln[:n-1]
	}
	return ln
}

// fill moves the unconsumed bytes to the front of the buffer, reads the
// file after them until the buffer is full, and marks the line-aligned
// chunk buf[off:end] for parsing. A chunk holding a '"', or a full buffer
// without a newline, switches the pass to encoding/csv from the chunk's
// first byte instead.
func (s *CSVStream) fill() error {
	s.n = copy(s.buf, s.buf[s.off:s.n])
	s.off, s.end = 0, 0
	for s.n < len(s.buf) && !s.eof {
		m, err := s.file.Read(s.buf[s.n:])
		s.n += m
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return err
		}
	}
	s.end = bytes.LastIndexByte(s.buf[:s.n], '\n') + 1
	if s.eof {
		s.end = s.n // the last line may lack a newline
	}
	if (s.end == 0 && !s.eof) || bytes.IndexByte(s.buf[:s.end], '"') >= 0 {
		s.switchToCSV()
	}
	return nil
}

// switchToCSV hands the rest of the pass, from buf[off], to encoding/csv.
func (s *CSVStream) switchToCSV() {
	rest := io.MultiReader(bytes.NewReader(s.buf[s.off:s.n]), s.file)
	s.cr = csv.NewReader(bufio.NewReaderSize(rest, csvChunkSize))
	s.cr.ReuseRecord = true
	s.cr.FieldsPerRecord = len(s.kinds)
	s.lineBase = s.line
	s.off, s.end = s.n, s.n
}

// Next implements Source. The returned tuple is reused between calls.
//
// Errors confined to one row — malformed CSV syntax, a wrong field
// count, an unparseable cell — come back as *RowError carrying the
// file:line position of the physical line; the stream stays positioned
// so the following Next yields the next row. A row that fails registers
// none of its categorical labels. I/O errors propagate wrapped and are
// fatal.
func (s *CSVStream) Next() (Tuple, error) {
	for {
		if s.cr != nil {
			return s.nextCSV()
		}
		for s.cur < s.nparts {
			if p := &s.parts[s.cur]; p.next < p.rows {
				return s.emit(p)
			}
			s.line += s.parts[s.cur].lines
			s.cur++
		}
		if s.file == nil {
			return nil, io.EOF
		}
		if s.off == s.end {
			if s.eof {
				return nil, io.EOF
			}
			if err := s.fill(); err != nil {
				return nil, fmt.Errorf("dataset: %s:%d: %w", s.path, s.line+1, err)
			}
			continue
		}
		s.parseChunk(s.buf[s.off:s.end])
		s.off = s.end
	}
}

// parseChunk splits chunk into line-aligned parts, one per available
// CPU, and parses them concurrently; it returns when all are parsed.
func (s *CSVStream) parseChunk(chunk []byte) {
	np := runtime.GOMAXPROCS(0)
	if len(s.parts) < np {
		s.parts = append(s.parts, make([]csvPart, np-len(s.parts))...)
	}
	lo := 0
	for k := 0; k < np; k++ {
		hi := len(chunk)
		if k < np-1 {
			if cut := (k + 1) * len(chunk) / np; cut > lo {
				if i := bytes.IndexByte(chunk[cut-1:], '\n'); i >= 0 {
					hi = cut + i
				}
			} else {
				hi = lo
			}
		}
		s.parts[k].data = chunk[lo:hi]
		lo = hi
	}
	var wg sync.WaitGroup
	for k := 1; k < np; k++ {
		wg.Add(1)
		go func(p *csvPart) {
			defer wg.Done()
			p.parse(s.kinds)
		}(&s.parts[k])
	}
	s.parts[0].parse(s.kinds)
	wg.Wait()
	s.nparts, s.cur = np, 0
}

// parse splits the part's lines into fields and parses the quantitative
// ones. It never touches the schema: only Next writes its dictionaries.
func (p *csvPart) parse(kinds []Kind) {
	p.vals, p.labels, p.bad = p.vals[:0], p.labels[:0], p.bad[:0]
	p.rows, p.lines, p.next, p.good, p.nbad = 0, 0, 0, 0, 0
	w := len(kinds)
	for pos := 0; pos < len(p.data); {
		start := pos
		ln := p.data[pos:]
		if i := bytes.IndexByte(ln, '\n'); i >= 0 {
			ln = ln[:i+1]
		}
		pos += len(ln)
		p.lines++
		if ln = trimEOL(ln); len(ln) == 0 {
			continue // blank lines are not records
		}
		vals := len(p.vals)
		labels := len(p.labels)
		// Every slot of a good row is written: quantitative ones here,
		// categorical ones by emit.
		p.vals = slices.Grow(p.vals, w)[:vals+w]
		row := p.vals[vals:]
		bad := csvBadRow{row: p.rows, line: p.lines, col: -1}
		col := 0
		for fpos := start; ; col++ {
			f := ln[fpos-start:]
			i := bytes.IndexByte(f, ',')
			if i >= 0 {
				f = f[:i]
			}
			if col < w {
				switch kinds[col] {
				case Quantitative:
					if bad.err == nil {
						v, err := number.Parse(f)
						if err != nil {
							bad.col, bad.err = col, err
						}
						row[col] = v
					}
				case Categorical:
					p.labels = append(p.labels, csvSpan{int32(fpos), int32(fpos + len(f))})
				}
			}
			if i < 0 {
				break
			}
			fpos += i + 1
		}
		if col+1 != w || bad.err != nil {
			if col+1 != w {
				bad.col = -1
			}
			p.bad = append(p.bad, bad)
			p.vals, p.labels = p.vals[:vals], p.labels[:labels]
		}
		p.rows++
	}
}

// emit hands out the part's next record: its tuple, with categorical
// labels resolved in row order, or its RowError.
func (s *CSVStream) emit(p *csvPart) (Tuple, error) {
	r := p.next
	p.next++
	if p.nbad < len(p.bad) && p.bad[p.nbad].row == r {
		b := p.bad[p.nbad]
		p.nbad++
		line := s.line + b.line
		if b.col < 0 {
			return nil, &RowError{Path: s.path, Row: line, Reason: "field-count",
				Err: &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}}
		}
		return nil, &RowError{Path: s.path, Row: line, Reason: "parse",
			Err: fmt.Errorf("attribute %q: %w", s.schema.At(b.col).Name, b.err)}
	}
	w := len(s.kinds)
	t := p.vals[p.good*w : (p.good+1)*w : (p.good+1)*w]
	labels := p.labels[p.good*len(s.cats):]
	p.good++
	for k, col := range s.cats {
		label := p.data[labels[k].lo:labels[k].hi]
		a := s.schema.At(col)
		code, ok := a.catIndex[string(label)]
		if !ok {
			code, _ = a.CategoryCode(string(label)) // cannot fail: a is categorical
		}
		t[col] = float64(code)
	}
	return t, nil
}

// nextCSV is Next on the encoding/csv path. Line numbers from the reader
// count from the switch point and are rebased onto the file.
func (s *CSVStream) nextCSV() (Tuple, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			// csv.Reader keeps its position after a parse error, so the
			// row is skippable.
			pe.StartLine += s.lineBase
			pe.Line += s.lineBase
			reason := "malformed"
			if errors.Is(err, csv.ErrFieldCount) {
				reason = "field-count"
			}
			return nil, &RowError{Path: s.path, Row: pe.Line, Reason: reason, Err: err}
		}
		return nil, fmt.Errorf("dataset: %s:%d: %w", s.path, s.line+1, err)
	}
	line, _ := s.cr.FieldPos(0)
	s.line = s.lineBase + line
	for i, field := range rec {
		if s.kinds[i] != Quantitative {
			continue
		}
		v, err := number.Parse(field)
		if err != nil {
			line, _ := s.cr.FieldPos(i)
			return nil, &RowError{Path: s.path, Row: s.lineBase + line, Reason: "parse",
				Err: fmt.Errorf("attribute %q: %w", s.schema.At(i).Name, err)}
		}
		s.out[i] = v
	}
	for _, i := range s.cats {
		code, _ := s.schema.At(i).CategoryCode(rec[i]) // cannot fail: the attribute is categorical
		s.out[i] = float64(code)
	}
	return s.out, nil
}

// Close releases the underlying file. The stream is unusable afterwards
// except via Reset, which reopens it.
func (s *CSVStream) Close() error {
	s.cr = nil
	s.nparts, s.cur = 0, 0
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
