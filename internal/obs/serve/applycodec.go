package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"arcs/internal/number"
)

// maxApplyBody caps the bytes an /apply body may have.
const maxApplyBody = 32 << 20

// maxPooledApply bounds the bytes of the buffers an /apply request hands
// back to applyPool; a larger set, left by an unusually large batch, is
// dropped for the collector instead of being pinned. A 1,000-point
// request needs about 70 KB.
const maxPooledApply = 1 << 20

// applyBuffers are one /apply request's buffers, reused across requests
// through applyPool: the body as read, its decoded points, the
// per-point results and the encoded response.
type applyBuffers struct {
	body    bytes.Buffer
	points  [][2]float64
	results []bool
	resp    []byte
}

var applyPool = sync.Pool{New: func() any { return new(applyBuffers) }}

// release hands b back to applyPool unless its buffers have outgrown
// maxPooledApply. Nothing may use b afterwards.
func (b *applyBuffers) release() {
	if b.body.Cap()+16*cap(b.points)+cap(b.results)+cap(b.resp) <= maxPooledApply {
		applyPool.Put(b)
	}
}

// read reads r's body, capped at maxApplyBody, into b.body and decodes
// it. fast reports that decodeApplyPoints took the body, whose points
// then live in b.points. Every other body, and any body whose read
// failed, goes as the bytes read followed by the read error to
// encoding/json with unknown fields disallowed, so it yields the
// request and the error that decoding straight from the connection
// yields.
func (b *applyBuffers) read(w http.ResponseWriter, r *http.Request) (req applyRequest, fast bool, err error) {
	b.body.Reset()
	_, rerr := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxApplyBody))
	if rerr == nil {
		if pts, ms, ok := decodeApplyPoints(b.body.Bytes(), b.points[:0]); ok {
			b.points = pts
			return applyRequest{Points: pts, TimeoutMS: ms}, true, nil
		}
	}
	var src io.Reader = &b.body
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, false, err
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeApplyPoints decodes the canonical /apply body: an object with a
// "points" array of [x, y] pairs and, optionally, an integer
// "timeout_ms", in either order, with JSON whitespace between any two
// tokens. It appends the points to pts and returns them, never nil.
//
// ok is false for any other body, which the caller hands to
// encoding/json: a missing, repeated or other key ("tuple", "Points"),
// a key with an escape, null, an element that is not exactly two
// numbers, a number outside JSON's grammar or that strconv.ParseFloat
// rejects (1e400), a timeout_ms that is not an int, or anything but
// whitespace after the object. Where ok is true, encoding/json decodes
// the body to the same points, bit for bit (number.Parse returns
// strconv.ParseFloat's value, as encoding/json does), and the same
// timeout_ms.
func decodeApplyPoints(body []byte, pts [][2]float64) (_ [][2]float64, timeoutMS int, ok bool) {
	s := applyScanner{b: body}
	if !s.eat('{') {
		return nil, 0, false
	}
	var seenPoints, seenTimeout bool
	for more := true; more; more = s.eat(',') {
		switch {
		case !seenPoints && s.key(`"points"`):
			seenPoints = true
			if pts, ok = s.points(pts); !ok {
				return nil, 0, false
			}
		case !seenTimeout && s.key(`"timeout_ms"`):
			seenTimeout = true
			if timeoutMS, ok = s.integer(); !ok {
				return nil, 0, false
			}
		default:
			return nil, 0, false
		}
	}
	if !s.eat('}') {
		return nil, 0, false
	}
	s.ws()
	if !seenPoints || s.i != len(s.b) {
		return nil, 0, false
	}
	if pts == nil {
		pts = [][2]float64{}
	}
	return pts, timeoutMS, true
}

// applyScanner walks an /apply body token by token.
type applyScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *applyScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then c, reporting whether c was there.
func (s *applyScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key skips whitespace, the quoted key k and the colon after it,
// reporting whether both were there. When either is missing, it skips
// only the whitespace, so the caller may try another key in its place.
func (s *applyScanner) key(k string) bool {
	s.ws()
	start := s.i
	if bytes.HasPrefix(s.b[s.i:], []byte(k)) {
		s.i += len(k)
		if s.eat(':') {
			return true
		}
	}
	s.i = start
	return false
}

// points decodes an array of [x, y] number pairs, appending them to pts.
func (s *applyScanner) points(pts [][2]float64) ([][2]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		return pts, true
	}
	for {
		if !s.eat('[') {
			return nil, false
		}
		x, ok := s.float()
		if !ok || !s.eat(',') {
			return nil, false
		}
		y, ok := s.float()
		if !ok || !s.eat(']') {
			return nil, false
		}
		pts = append(pts, [2]float64{x, y})
		if s.eat(',') {
			continue
		}
		return pts, s.eat(']')
	}
}

// float decodes one number as encoding/json decodes it into a float64.
func (s *applyScanner) float() (float64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := number.Parse(tok)
	return f, err == nil
}

// integer decodes one number as encoding/json decodes it into an int:
// a token with neither fraction nor exponent, within the int range.
func (s *applyScanner) integer() (int, bool) {
	tok, ok := s.number()
	if !ok || bytes.ContainsAny(tok, ".eE") {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(n), err == nil
}

// number skips whitespace and returns the token of a number in JSON's
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. Whatever
// follows is the caller's to check.
func (s *applyScanner) number() ([]byte, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return nil, false
		}
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendPointsResponse appends the points response of model to dst: the
// bytes writeJSON writes for {"model", "total", "matched", "results"},
// its keys sorted, indented by two spaces, one result a line, and a
// final newline.
func appendPointsResponse(dst []byte, model string, matched int, results []bool) []byte {
	dst = append(dst, "{\n  \"matched\": "...)
	dst = strconv.AppendInt(dst, int64(matched), 10)
	dst = append(dst, ",\n  \"model\": "...)
	dst = appendJSONString(dst, model)
	dst = append(dst, ",\n  \"results\": ["...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if r {
			dst = append(dst, "\n    true"...)
		} else {
			dst = append(dst, "\n    false"...)
		}
	}
	if len(results) > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, "],\n  \"total\": "...)
	dst = strconv.AppendInt(dst, int64(len(results)), 10)
	return append(dst, "\n}\n"...)
}

// appendJSONString appends s quoted as encoding/json quotes it. Printable
// ASCII other than the quote, the backslash and the HTML characters
// encoding/json escapes is copied as it is; anything else goes through
// json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
