package counts

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"arcs/internal/binning"
	"arcs/internal/dataset"
)

func newDenseT(t *testing.T, nx, ny, nseg int) *DenseArray {
	t.Helper()
	d, err := NewDense(nx, ny, nseg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := NewDense(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("dense dims %v should be rejected", dims)
		}
		if _, err := NewSparse(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("sparse dims %v should be rejected", dims)
		}
	}
	d := newDenseT(t, 3, 4, 2)
	if d.NX() != 3 || d.NY() != 4 || d.NSeg() != 2 {
		t.Errorf("dims = %d, %d, %d", d.NX(), d.NY(), d.NSeg())
	}
}

func TestAddAndCounts(t *testing.T) {
	d := newDenseT(t, 2, 2, 3)
	d.Add(0, 0, 1)
	d.Add(0, 0, 1)
	d.Add(0, 0, 2)
	d.Add(1, 1, 0)
	if got := d.Count(0, 0, 1); got != 2 {
		t.Errorf("Count(0,0,1) = %d", got)
	}
	if got := d.CellTotal(0, 0); got != 3 {
		t.Errorf("CellTotal(0,0) = %d", got)
	}
	if got := d.Count(0, 0, 0); got != 0 {
		t.Errorf("Count(0,0,0) = %d", got)
	}
	if d.N() != 4 {
		t.Errorf("N = %d", d.N())
	}
}

// TestSupportConfidence: Occupied hands the engine the two counts
// support (segCount/N) and confidence (segCount/cellTotal) derive from.
func TestSupportConfidence(t *testing.T) {
	d := newDenseT(t, 2, 2, 2)
	// 8 tuples in cell (0,0): 6 of seg 0, 2 of seg 1; 2 tuples elsewhere.
	for i := 0; i < 6; i++ {
		d.Add(0, 0, 0)
	}
	d.Add(0, 0, 1)
	d.Add(0, 0, 1)
	d.Add(1, 0, 0)
	d.Add(1, 1, 1)
	var sup, conf float64
	Occupied(d, 0, func(x, y int, segCount, cellTotal uint32) {
		if x == 0 && y == 0 {
			sup = float64(segCount) / float64(d.N())
			conf = float64(segCount) / float64(cellTotal)
		}
		if x == 0 && y == 1 {
			t.Error("Occupied visited an empty cell")
		}
	})
	if math.Abs(sup-0.6) > 1e-12 {
		t.Errorf("support = %v, want 0.6", sup)
	}
	if math.Abs(conf-0.75) > 1e-12 {
		t.Errorf("confidence = %v, want 0.75", conf)
	}
}

// TestZeroValueSupportSafe: an empty array has no occupied cells, so
// nothing downstream divides by its zero N.
func TestZeroValueSupportSafe(t *testing.T) {
	d := newDenseT(t, 1, 1, 1)
	Occupied(d, 0, func(x, y int, _, _ uint32) { t.Errorf("empty array visited cell (%d,%d)", x, y) })
}

func TestAddPanicsOutOfRange(t *testing.T) {
	d := newDenseT(t, 2, 2, 2)
	s, err := NewSparse(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Adder{d, s} {
		for _, c := range [][3]int{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {-1, 0, 0}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T.Add%v should panic", a, c)
					}
				}()
				a.Add(c[0], c[1], c[2])
			}()
		}
	}
}

// TestOccupiedDeterministicOrder: every backend visits cells row-major.
func TestOccupiedDeterministicOrder(t *testing.T) {
	want := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	ops := []gridOp{{2, 0, 0, 1}, {0, 1, 0, 1}, {1, 2, 0, 1}}
	for kind, b := range builtBackends(t, 3, 3, 1, ops) {
		var cells [][2]int
		Occupied(b, 0, func(x, y int, c, total uint32) {
			cells = append(cells, [2]int{x, y})
			if c != 1 || total != 1 {
				t.Errorf("%s cell (%d,%d): count=%d total=%d", kind, x, y, c, total)
			}
		})
		if len(cells) != len(want) {
			t.Fatalf("%s cells = %v", kind, cells)
		}
		for i := range want {
			if cells[i] != want[i] {
				t.Errorf("%s cell order %v, want %v", kind, cells, want)
				break
			}
		}
	}
}

func TestInvariantTotalsMatch(t *testing.T) {
	// Property: after arbitrary Adds, cell totals equal the sum of the
	// per-segment counts, and N equals the grand total.
	f := func(ops []uint8) bool {
		d, _ := NewDense(4, 4, 3)
		for _, op := range ops {
			d.Add(int(op)%4, int(op>>2)%4, int(op>>4)%3)
		}
		var grand uint64
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				var sum uint32
				for s := 0; s < 3; s++ {
					sum += d.Count(x, y, s)
				}
				if sum != d.CellTotal(x, y) {
					return false
				}
				grand += uint64(sum)
			}
		}
		return grand == d.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildFromSource(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "salary", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical},
	)
	tb := dataset.NewTable(schema)
	rows := [][]interface{}{
		{25, 30_000.0, "A"},
		{25, 31_000.0, "A"},
		{45, 90_000.0, "B"},
		{75, 10_000.0, "A"},
	}
	for _, r := range rows {
		if err := tb.AppendValues(r...); err != nil {
			t.Fatal(err)
		}
	}
	xb, _ := binning.NewEquiWidth(20, 80, 3)     // bins: [20,40) [40,60) [60,80]
	yb, _ := binning.NewEquiWidth(0, 120_000, 3) // bins of 40k
	spec := Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: schema.Attr("group").NumCategories()}
	b, err := Build(context.Background(), tb, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 4 {
		t.Fatalf("N = %d", b.N())
	}
	codeA, _ := schema.Attr("group").LookupCategory("A")
	codeB, _ := schema.Attr("group").LookupCategory("B")
	if got := b.Count(0, 0, codeA); got != 2 {
		t.Errorf("young low-salary A count = %d, want 2", got)
	}
	if got := b.Count(1, 2, codeB); got != 1 {
		t.Errorf("middle high-salary B count = %d, want 1", got)
	}
	if got := b.Count(2, 0, codeA); got != 1 {
		t.Errorf("old low-salary A count = %d, want 1", got)
	}
}

// TestBuildRejectsBadCriterion: a criterion code outside the build's
// range fails the pass on the table and the streaming path alike, and
// names the label when the schema has one for the code.
func TestBuildRejectsBadCriterion(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	tb := dataset.NewTable(schema)
	tb.MustAppend(dataset.Tuple{1, 1, 5}) // group code 5 with nseg 2
	xb, _ := binning.NewEquiWidth(0, 10, 2)
	yb, _ := binning.NewEquiWidth(0, 10, 2)
	spec := Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: 2}
	for _, src := range []dataset.Source{tb, dataset.Limit(tb, 1)} {
		if _, err := Build(context.Background(), src, spec, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%T: err = %v, want a criterion range error", src, err)
		}
	}
	// A label the schema met after the build was sized.
	for _, label := range []string{"a", "b", "late"} {
		if _, err := schema.At(2).CategoryCode(label); err != nil {
			t.Fatal(err)
		}
	}
	late := dataset.NewTable(schema)
	late.MustAppend(dataset.Tuple{1, 1, 2})
	_, err := Build(context.Background(), late, spec, Options{})
	if err == nil || !strings.Contains(err.Error(), `"late"`) {
		t.Errorf("err = %v, want it to name the label \"late\"", err)
	}
}

// TestAddNMatchesAdd checks the bulk accumulation against repeated
// single Adds.
func TestAddNMatchesAdd(t *testing.T) {
	a, b := newDenseT(t, 3, 4, 2), newDenseT(t, 3, 4, 2)
	for i := 0; i < 7; i++ {
		a.Add(1, 2, 0)
	}
	a.Add(1, 2, 1)
	a.Add(2, 3, 1)
	b.AddN(1, 2, 0, 7)
	b.AddN(1, 2, 1, 1)
	b.AddN(2, 3, 1, 1)
	if !bytes.Equal(snapBytes(t, a), snapBytes(t, b)) {
		t.Fatal("AddN diverges from repeated Add")
	}
}

// TestAddNSaturation checks the overflow behavior: per-cell counters pin
// at MaxUint32 instead of wrapping, while the 64-bit total keeps exact
// count, and a merge of saturated shards stays saturated (saturating
// addition is associative, preserving sharded/sequential equivalence).
func TestAddNSaturation(t *testing.T) {
	b := newDenseT(t, 2, 2, 2)
	b.AddN(0, 1, 0, math.MaxUint32-1)
	if got := b.Count(0, 1, 0); got != math.MaxUint32-1 {
		t.Fatalf("Count = %d, want %d", got, uint32(math.MaxUint32-1))
	}
	b.AddN(0, 1, 0, 5)
	if got := b.Count(0, 1, 0); got != math.MaxUint32 {
		t.Errorf("saturated Count = %d, want MaxUint32", got)
	}
	if got := b.CellTotal(0, 1); got != math.MaxUint32 {
		t.Errorf("saturated CellTotal = %d, want MaxUint32", got)
	}
	if got := b.N(); got != uint64(math.MaxUint32-1)+5 {
		t.Errorf("N = %d, want %d (64-bit total must not saturate)", got, uint64(math.MaxUint32-1)+5)
	}
	// Single Add on a saturated cell stays pinned.
	b.Add(0, 1, 0)
	if got := b.Count(0, 1, 0); got != math.MaxUint32 {
		t.Errorf("Add on saturated cell = %d, want MaxUint32", got)
	}

	// Merging two half-saturated shards saturates exactly like a single
	// sequential pass would.
	s1, s2 := newDenseT(t, 2, 2, 2), newDenseT(t, 2, 2, 2)
	s1.AddN(1, 0, 1, math.MaxUint32/2+7)
	s2.AddN(1, 0, 1, math.MaxUint32/2+9)
	transfer(s1, s2)
	if got := s1.Count(1, 0, 1); got != math.MaxUint32 {
		t.Errorf("merged saturated Count = %d, want MaxUint32", got)
	}
	if got := s1.N(); got != uint64(math.MaxUint32/2+7)+uint64(math.MaxUint32/2+9) {
		t.Errorf("merged N = %d, want exact 64-bit sum", got)
	}
}

// TestAddNOutOfRangePanics mirrors Add's contract.
func TestAddNOutOfRangePanics(t *testing.T) {
	b := newDenseT(t, 2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("AddN out of range did not panic")
		}
	}()
	b.AddN(2, 0, 0, 1)
}

func TestMergeAddsCounts(t *testing.T) {
	a, b := newDenseT(t, 3, 2, 2), newDenseT(t, 3, 2, 2)
	a.Add(0, 0, 0)
	a.Add(2, 1, 1)
	b.Add(0, 0, 0)
	b.Add(0, 0, 1)
	transfer(a, b)
	if got := a.Count(0, 0, 0); got != 2 {
		t.Errorf("Count(0,0,0) = %d, want 2", got)
	}
	if got := a.Count(0, 0, 1); got != 1 {
		t.Errorf("Count(0,0,1) = %d, want 1", got)
	}
	if got := a.Count(2, 1, 1); got != 1 {
		t.Errorf("Count(2,1,1) = %d, want 1", got)
	}
	if got := a.CellTotal(0, 0); got != 3 {
		t.Errorf("CellTotal(0,0) = %d, want 3", got)
	}
	if got := a.N(); got != 4 {
		t.Errorf("N() = %d, want 4", got)
	}
	// The merge source is untouched.
	if got := b.N(); got != 2 {
		t.Errorf("merge source N() = %d, want 2", got)
	}
}

// TestWriteReadRoundTrip decodes a snapshot by hand: the ARCSBA1 header
// carries the dimensions and N, and the payload is the row-major count
// array — per-segment counts, then the cell total.
func TestWriteReadRoundTrip(t *testing.T) {
	d := newDenseT(t, 5, 7, 3)
	d.Add(0, 0, 0)
	d.Add(4, 6, 2)
	d.Add(2, 3, 1)
	d.Add(2, 3, 1)
	data := snapBytes(t, d)
	if !bytes.HasPrefix(data, snapMagic) {
		t.Fatalf("snapshot starts %q, want the ARCSBA1 magic", data[:8])
	}
	var hdr [4]uint64
	if err := binary.Read(bytes.NewReader(data[8:40]), binary.LittleEndian, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr != [4]uint64{5, 7, 3, 4} {
		t.Fatalf("header nx/ny/nseg/n = %v, want [5 7 3 4]", hdr)
	}
	payload := data[40:]
	if len(payload) != 5*7*4*4 {
		t.Fatalf("payload is %d bytes, want %d", len(payload), 5*7*4*4)
	}
	at := func(x, y, slot int) uint32 {
		return binary.LittleEndian.Uint32(payload[((x*7+y)*4+slot)*4:])
	}
	for x := 0; x < 5; x++ {
		for y := 0; y < 7; y++ {
			for s := 0; s < 3; s++ {
				if at(x, y, s) != d.Count(x, y, s) {
					t.Fatalf("count (%d,%d,%d) differs", x, y, s)
				}
			}
			if at(x, y, 3) != d.CellTotal(x, y) {
				t.Fatalf("total (%d,%d) differs", x, y)
			}
		}
	}
}

// TestWriteReadEmpty: an empty grid snapshots to its header and zeros.
func TestWriteReadEmpty(t *testing.T) {
	data := snapBytes(t, newDenseT(t, 3, 3, 2))
	if len(data) != 40+3*3*3*4 {
		t.Fatalf("snapshot is %d bytes", len(data))
	}
	if binary.LittleEndian.Uint64(data[32:40]) != 0 {
		t.Error("N of an empty grid is not 0")
	}
	if !bytes.Equal(data[40:], make([]byte, len(data)-40)) {
		t.Error("empty grid has nonzero counts")
	}
}

func TestNewBudgetRejectsOversizedGrid(t *testing.T) {
	// 1000×1000×(9+1) uint32 = 40 MB; a 1 MB budget must refuse it and
	// name both the computed size and the budget so operators can tune.
	_, err := newDense(1000, 1000, 9, 1<<20)
	if err == nil {
		t.Fatal("oversized grid accepted")
	}
	if !strings.Contains(err.Error(), "40000000 bytes") || !strings.Contains(err.Error(), "1048576") {
		t.Errorf("error should carry computed size and budget: %v", err)
	}
}

func TestNewBudgetDisabledStillRejectsOverflow(t *testing.T) {
	// Element count overflowing the int range must fail even with the
	// budget check disabled — this is the guard against silent index
	// wraparound, not a tunable.
	if _, err := newDense(1<<31, 1<<31, 1<<31, 0); err == nil {
		t.Fatal("overflowing dimensions accepted with budget disabled")
	}
	if _, err := memNeeded(1<<31, 1<<31, 1<<62-2); err == nil {
		t.Fatal("element-count overflow accepted")
	}
}

func TestMemNeeded(t *testing.T) {
	got, err := memNeeded(50, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(50 * 50 * 3 * 4); got != want {
		t.Errorf("memNeeded(50,50,2) = %d, want %d", got, want)
	}
}

// TestNewUsesDefaultBudget: NewDense and a zero Options.MemBudget apply
// the 1 GiB default — a 3.2 GB grid is refused before allocation.
func TestNewUsesDefaultBudget(t *testing.T) {
	if _, err := NewDense(20_000, 20_000, 1); err == nil {
		t.Error("NewDense ignored the default budget")
	}
	if got := (Options{}).budget(); got != 1<<30 {
		t.Errorf("zero Options budget = %d, want 1 GiB", got)
	}
	if _, err := NewDense(4, 4, 3); err != nil {
		t.Errorf("small grid rejected: %v", err)
	}
}

func TestBuildContextCancel(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	src := dataset.NewFuncSource(schema, 100_000, func(i int, out dataset.Tuple) {
		out[0] = float64(i % 100)
		out[1] = float64(i % 50)
		out[2] = float64(i % 2)
	})
	xb, err := binning.NewEquiWidth(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := binning.NewEquiWidth(0, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := Build(ctx, src, spec, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if b != nil {
		t.Error("canceled build returned a partial array")
	}
	// Same source, live context: the pass completes.
	b, err = Build(context.Background(), src, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 100_000 {
		t.Errorf("N = %d, want 100000", b.N())
	}
}
