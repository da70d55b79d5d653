// Package synth reimplements the synthetic data generator of Agrawal,
// Imielinski and Swami ("Database Mining: A Performance Perspective",
// IEEE TKDE 5(6), 1993) — reference [2] of the ARCS paper — which defines
// nine person-record attributes and ten classification functions of
// varying complexity. The ARCS evaluation (paper §4.1, Table 1, Figure 8)
// draws all of its data from this generator with Function 2.
//
// The generator is Stream: tuple i is a pure function of the seed and i,
// so a source of it can be reset, sharded and read in any order.
//
// In addition to the classification functions, the generator models the
// three distortions the paper studies:
//
//   - a group-fraction control (fracA / fracOther, Table 1) realized by
//     bounded rejection sampling,
//   - a perturbation factor that fuzzes attribute values near disjunct
//     boundaries, and
//   - an outlier percentage: tuples keep their assigned group label but
//     their attributes are drawn uniformly, ignoring the rules.
package synth

import (
	"fmt"

	"arcs/internal/dataset"
)

// Attribute domains, following Agrawal et al. §5.1.
const (
	SalaryMin, SalaryMax = 20_000.0, 150_000.0
	CommissionMin        = 10_000.0
	CommissionMax        = 75_000.0
	AgeMin, AgeMax       = 20.0, 80.0
	HYearsMin, HYearsMax = 1.0, 30.0
	LoanMin, LoanMax     = 0.0, 500_000.0
	NumELevels           = 5  // education level 0..4
	NumCars              = 20 // make of car 1..20
	NumZipcodes          = 9  // zipcode 0..8, also scales hvalue
)

// GroupA and GroupOther are the labels of the criterion attribute.
const (
	GroupA     = "A"
	GroupOther = "other"
)

// Attribute names in schema order.
const (
	AttrSalary     = "salary"
	AttrCommission = "commission"
	AttrAge        = "age"
	AttrELevel     = "elevel"
	AttrCar        = "car"
	AttrZipcode    = "zipcode"
	AttrHValue     = "hvalue"
	AttrHYears     = "hyears"
	AttrLoan       = "loan"
	AttrGroup      = "group"
)

// Column indices into generated tuples, in schema order.
const (
	ColSalary = iota
	ColCommission
	ColAge
	ColELevel
	ColCar
	ColZipcode
	ColHValue
	ColHYears
	ColLoan
	ColGroup
	numCols
)

// Config parameterizes a generator run. The zero value is not valid; use
// the exported fields mirroring paper Table 1.
type Config struct {
	// Function selects the classification function, 1 through 10.
	Function int
	// N is the number of tuples to generate.
	N int
	// Seed makes the stream deterministic and replayable.
	Seed int64
	// Perturbation is the perturbation factor P of Table 1 (e.g. 0.05):
	// each quantitative attribute is shifted by a uniform offset of up to
	// ±P/2 of its domain width after the group label is assigned.
	Perturbation float64
	// OutlierFraction is U of Table 1 (e.g. 0.10): the fraction of tuples
	// whose label is kept but whose attributes are redrawn uniformly.
	OutlierFraction float64
	// FracA is the target fraction of tuples labeled Group A (Table 1
	// uses 0.40). Zero disables fraction control and the natural label
	// distribution of the function is kept.
	FracA float64
}

func (c Config) validate() error {
	if c.Function < 1 || c.Function > 10 {
		return fmt.Errorf("synth: function must be 1..10, got %d", c.Function)
	}
	if c.N < 0 {
		return fmt.Errorf("synth: N must be non-negative, got %d", c.N)
	}
	// The fraction checks are written so that NaN fails them.
	if !(c.Perturbation >= 0 && c.Perturbation <= 1) {
		return fmt.Errorf("synth: perturbation must be in [0,1], got %g", c.Perturbation)
	}
	if !(c.OutlierFraction >= 0 && c.OutlierFraction <= 1) {
		return fmt.Errorf("synth: outlier fraction must be in [0,1], got %g", c.OutlierFraction)
	}
	if !(c.FracA >= 0 && c.FracA < 1) {
		return fmt.Errorf("synth: fracA must be in [0,1), got %g", c.FracA)
	}
	return nil
}

// NewSchema builds the nine-attribute person schema plus the categorical
// group attribute, with GroupA and GroupOther pre-registered (GroupA gets
// code 0).
func NewSchema() *dataset.Schema {
	s := dataset.NewSchema(
		dataset.Attribute{Name: AttrSalary, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrCommission, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrAge, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrELevel, Kind: dataset.Categorical},
		dataset.Attribute{Name: AttrCar, Kind: dataset.Categorical},
		dataset.Attribute{Name: AttrZipcode, Kind: dataset.Categorical},
		dataset.Attribute{Name: AttrHValue, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrHYears, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrLoan, Kind: dataset.Quantitative},
		dataset.Attribute{Name: AttrGroup, Kind: dataset.Categorical},
	)
	// Register categorical domains eagerly so codes are stable regardless
	// of generation order.
	for e := 0; e < NumELevels; e++ {
		s.Attr(AttrELevel).CategoryCode(fmt.Sprintf("%d", e))
	}
	for c := 1; c <= NumCars; c++ {
		s.Attr(AttrCar).CategoryCode(fmt.Sprintf("%d", c))
	}
	for z := 0; z < NumZipcodes; z++ {
		s.Attr(AttrZipcode).CategoryCode(fmt.Sprintf("%d", z))
	}
	s.Attr(AttrGroup).CategoryCode(GroupA)
	s.Attr(AttrGroup).CategoryCode(GroupOther)
	return s
}
