package synth

import (
	"fmt"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// Truth is the exported ground truth of one Agrawal classification
// function: the attribute pair a 2D miner should segment over, that
// pair's domain, and — when the function is exactly a union of
// axis-aligned rectangles in the pair's plane — the generating
// disjuncts themselves. Functions whose Group A membership depends on
// more than two attributes or on linear combinations (4-10 except as
// noted) carry no Regions; their ground truth is the Label function,
// measured against a held-out test table.
type Truth struct {
	// Function is the classification function number, 1..10.
	Function int `json:"function"`
	// XAttr and YAttr are the recommended LHS pair for mining this
	// function with a two-attribute system: the pair that carries the
	// most of the function's structure.
	XAttr string `json:"x_attr"`
	YAttr string `json:"y_attr"`
	// XLo/XHi and YLo/YHi are the pair's domain, the lattice over which
	// rectangle-recovery metrics are measured. For categorical axes the
	// domain is code space [0, numCodes).
	XLo float64 `json:"x_domain_lo"`
	XHi float64 `json:"x_domain_hi"`
	YLo float64 `json:"y_domain_lo"`
	YHi float64 `json:"y_domain_hi"`
	// Regions are the generating disjuncts in the (XAttr, YAttr) plane,
	// nil when the function is not a union of axis-aligned rectangles
	// there. For a categorical axis the bounds are category codes (code
	// c occupies [c, c+1)), the order in which a categorical axis is
	// binned and mined (Function 3).
	Regions []rules.Rect `json:"regions,omitempty"`
	// CategoricalY marks YAttr as categorical (code-space axis).
	CategoricalY bool `json:"categorical_y,omitempty"`
}

// Label reports whether a raw generator tuple (schema order, before
// perturbation) belongs to Group A under the truth's function. This is
// the exact generating predicate; it is defined for every function,
// including the ones with no rectangular Regions.
func (tr Truth) Label(t dataset.Tuple) bool { return IsGroupA(tr.Function, t) }

// HasRegions reports whether rectangle-recovery metrics are defined for
// this function.
func (tr Truth) HasRegions() bool { return len(tr.Regions) > 0 }

// ContainsPoint reports whether (x, y) lies inside any generating
// region. Only meaningful when HasRegions.
func (tr Truth) ContainsPoint(x, y float64) bool {
	for _, r := range tr.Regions {
		if r.Contains(x, y) {
			return true
		}
	}
	return false
}

// GroundTruth returns the exported ground truth for classification
// function fn (1..10). The recommended pairs:
//
//	1  age × salary     rectangular (age bands, full salary span)
//	2  age × salary     rectangular (the paper's Figure 8 staircase)
//	3  age × elevel     rectangular in code space
//	4  age × salary     salary bands nested under age AND elevel — no 2D rects
//	5  salary × loan    loan bands nested under age AND salary — no 2D rects
//	6  age × salary     thresholds on salary+commission — no 2D rects
//	7  salary × loan    halfplane on 0.67(salary+commission)-0.2 loan
//	8  salary × elevel  halfplane on 0.67(salary+commission)-5000 elevel
//	9  salary × elevel  adds a loan term — no 2D rects
//	10 salary × elevel  adds an hvalue/hyears equity term — no 2D rects
//
// Unknown function numbers return an error rather than panicking, so
// callers can validate user input.
func GroundTruth(fn int) (Truth, error) {
	ageSalary := Truth{
		Function: fn,
		XAttr:    AttrAge, YAttr: AttrSalary,
		XLo: AgeMin, XHi: AgeMax,
		YLo: SalaryMin, YHi: SalaryMax,
	}
	switch fn {
	case 1:
		ageSalary.Regions = []rules.Rect{
			{XLo: AgeMin, XHi: 40, YLo: SalaryMin, YHi: SalaryMax},
			{XLo: 60, XHi: AgeMax, YLo: SalaryMin, YHi: SalaryMax},
		}
		return ageSalary, nil
	case 2:
		ageSalary.Regions = []rules.Rect{
			{XLo: AgeMin, XHi: 40, YLo: 50_000, YHi: 100_000},
			{XLo: 40, XHi: 60, YLo: 75_000, YHi: 125_000},
			{XLo: 60, XHi: AgeMax, YLo: 25_000, YHi: 75_000},
		}
		return ageSalary, nil
	case 3:
		return Truth{
			Function: fn,
			XAttr:    AttrAge, YAttr: AttrELevel,
			XLo: AgeMin, XHi: AgeMax,
			YLo: 0, YHi: NumELevels,
			CategoricalY: true,
			Regions: []rules.Rect{
				{XLo: AgeMin, XHi: 40, YLo: 0, YHi: 2},
				{XLo: 40, XHi: 60, YLo: 1, YHi: 4},
				{XLo: 60, XHi: AgeMax, YLo: 2, YHi: 5},
			},
		}, nil
	case 4, 6:
		return ageSalary, nil
	case 5, 7:
		return Truth{
			Function: fn,
			XAttr:    AttrSalary, YAttr: AttrLoan,
			XLo: SalaryMin, XHi: SalaryMax,
			YLo: LoanMin, YHi: LoanMax,
		}, nil
	case 8, 9, 10:
		return Truth{
			Function: fn,
			XAttr:    AttrSalary, YAttr: AttrELevel,
			XLo: SalaryMin, XHi: SalaryMax,
			YLo: 0, YHi: NumELevels,
			CategoricalY: true,
		}, nil
	default:
		return Truth{}, fmt.Errorf("synth: ground truth wants function 1..10, got %d", fn)
	}
}
