package number

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkNumber compares the kernel with strconv.ParseFloat on one field:
// wherever the kernel takes the field it returns strconv's value bit for
// bit, and Parse returns strconv's value and error in every case.
// It reports whether the kernel took the field.
func checkNumber(t *testing.T, field string) (took bool) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(field, 64)
	f, ok := Scan(field)
	if bf, bok := Scan([]byte(field)); math.Float64bits(bf) != math.Float64bits(f) || bok != ok {
		t.Fatalf("Scan(%q): string gives (%v, %v), []byte gives (%v, %v)", field, f, ok, bf, bok)
	}
	if ok && (wantErr != nil || math.Float64bits(f) != math.Float64bits(want)) {
		t.Fatalf("Scan(%q) = (%v [%#x], true); strconv.ParseFloat = (%v [%#x], %v)",
			field, f, math.Float64bits(f), want, math.Float64bits(want), wantErr)
	}
	same := func(v float64, err error) {
		t.Helper()
		if math.Float64bits(v) != math.Float64bits(want) || errString(err) != errString(wantErr) {
			t.Fatalf("Parse(%q) = (%v, %v), strconv.ParseFloat = (%v, %v)", field, v, err, want, wantErr)
		}
	}
	same(Parse(field))
	same(Parse([]byte(field)))
	return ok
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestScanNumberMatchesStrconv is the kernel's differential test against
// strconv.ParseFloat, its oracle, over the edge cases, one input per
// row of the power table, and random float64 bit patterns and decimals
// in 'g', 'e' and 'f' form.
func TestScanNumberMatchesStrconv(t *testing.T) {
	for _, s := range EdgeCases {
		checkNumber(t, s)
	}
	// Every decimal exponent of the power table, with short and 19-digit
	// mantissas, so every row is read.
	rng := rand.New(rand.NewSource(1))
	for q := minPow10; q <= maxPow10; q++ {
		for _, man := range []string{"1", "7", "123456789", strconv.FormatUint(rng.Uint64()%9e18+1e18, 10)} {
			checkNumber(t, man+"e"+strconv.Itoa(q))
			checkNumber(t, "-"+man+"e"+strconv.Itoa(q))
		}
	}

	// Random values: bit patterns (subnormals, NaN and Inf included),
	// normals scaled over 1e±20 and integers.
	total, took := 0, 0
	gTotal, gTook := 0, 0
	for i := 0; i < 10_000; i++ {
		for _, v := range []float64{
			math.Float64frombits(rng.Uint64()),
			rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20)),
			float64(rng.Int63n(1 << (1 + rng.Intn(62)))),
		} {
			forms := []string{
				strconv.FormatFloat(v, 'g', -1, 64),
				strconv.FormatFloat(v, 'e', rng.Intn(20), 64), // 1 to 20 digits
				strconv.FormatFloat(v, 'f', -1, 64),
				strconv.FormatFloat(v, 'f', rng.Intn(8), 64),
			}
			for k, s := range forms {
				ok := checkNumber(t, s)
				total++
				if ok {
					took++
				}
				if a := math.Abs(v); k == 0 && a > 1e-300 && a < 1e300 {
					gTotal++
					if ok {
						gTook++
					}
				}
			}
		}
	}
	// Bit identity alone would pass a kernel that declines everything;
	// the speed-up needs it to take the shortest form of ordinary values.
	if float64(gTook) < 0.99*float64(gTotal) {
		t.Errorf("the kernel took %d of %d shortest-form normal values, want at least 99%%", gTook, gTotal)
	}
	t.Logf("the kernel took %d of %d random fields (%d of %d shortest-form normal values)", took, total, gTook, gTotal)
}

// TestPowersOfTenMatchGo pins the computed power table to the one
// strconv's Eisel–Lemire code lists, row by row.
func TestPowersOfTenMatchGo(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to find GOROOT: %v", err)
	}
	out, err := exec.Command(gotool, "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("go env GOROOT: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(out)), "src", "strconv", "eisel_lemire.go"))
	if err != nil {
		t.Skipf("strconv source not available: %v", err)
	}
	rows := regexp.MustCompile(`\{0x([0-9A-F]{16}), 0x([0-9A-F]{16})\}, // 1e(-?\d+)`).FindAllStringSubmatch(string(src), -1)
	table := powersOfTen()
	if len(rows) != len(table) {
		t.Fatalf("strconv lists %d powers of ten, the computed table has %d", len(rows), len(table))
	}
	for _, r := range rows {
		lo, _ := strconv.ParseUint(r[1], 16, 64)
		hi, _ := strconv.ParseUint(r[2], 16, 64)
		q, _ := strconv.Atoi(r[3])
		if q < minPow10 || q > maxPow10 {
			t.Fatalf("strconv lists 1e%d, outside [%d, %d]", q, minPow10, maxPow10)
		}
		if got := table[q-minPow10]; got != (u128{hi, lo}) {
			t.Errorf("1e%d: computed %016X_%016X, strconv has %016X_%016X", q, got.hi, got.lo, hi, lo)
		}
	}
}

// TestParseFloatZeroAlloc: the kernel allocates nothing, for string
// fields (ReadCSV, inference, the encoding/csv path) and byte fields
// (the chunk parser), on both of its exact paths.
func TestParseFloatZeroAlloc(t *testing.T) {
	fields := []string{"42", "-0.125", "83427.53125", "1.7976931348623157e308", "2.5e-300", "1234567890123456789"}
	bfields := make([][]byte, len(fields))
	for i, s := range fields {
		bfields[i] = []byte(s)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for i, s := range fields {
			v, err := Parse(s)
			w, err2 := Parse(bfields[i])
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			sink += v + w
		}
	})
	if allocs != 0 {
		t.Errorf("parsing %d fields allocated %.1f times, want 0", 2*len(fields), allocs)
	}
	_ = sink
}

// FuzzParseFloat checks the kernel against strconv.ParseFloat on
// arbitrary fields.
func FuzzParseFloat(f *testing.F) {
	for _, s := range EdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, field string) {
		checkNumber(t, field)
	})
}

var benchSink float64

// BenchmarkParseFloat times a field of the shape synthgen writes through
// the kernel and through strconv alone.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fields := make([][]byte, 1024)
	for i := range fields {
		fields[i] = []byte(strconv.FormatFloat(20_000+rng.Float64()*130_000, 'g', -1, 64))
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink, _ = Parse(fields[i%len(fields)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink, _ = strconv.ParseFloat(string(fields[i%len(fields)]), 64)
		}
	})
}
