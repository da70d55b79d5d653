package synth

import (
	"arcs/internal/dataset"
)

// IsGroupA evaluates classification function fn (1..10) from Agrawal et
// al. on a raw (unperturbed) tuple in generator column order, reporting
// whether the tuple belongs to Group A. Unknown function numbers panic;
// Config validation prevents them from reaching here.
func IsGroupA(fn int, t dataset.Tuple) bool {
	salary := t[ColSalary]
	commission := t[ColCommission]
	age := t[ColAge]
	elevel := int(t[ColELevel])
	hvalue := t[ColHValue]
	hyears := t[ColHYears]
	loan := t[ColLoan]

	switch fn {
	case 1:
		// Group A: age < 40 or age >= 60.
		return age < 40 || age >= 60

	case 2:
		// The paper's Figure 8 function:
		//   (age < 40          and  50K <= salary <= 100K) or
		//   (40 <= age < 60    and  75K <= salary <= 125K) or
		//   (age >= 60         and  25K <= salary <=  75K)
		switch {
		case age < 40:
			return 50_000 <= salary && salary <= 100_000
		case age < 60:
			return 75_000 <= salary && salary <= 125_000
		default:
			return 25_000 <= salary && salary <= 75_000
		}

	case 3:
		switch {
		case age < 40:
			return elevel == 0 || elevel == 1
		case age < 60:
			return 1 <= elevel && elevel <= 3
		default:
			return 2 <= elevel && elevel <= 4
		}

	case 4:
		switch {
		case age < 40:
			if elevel == 0 || elevel == 1 {
				return 25_000 <= salary && salary <= 75_000
			}
			return 50_000 <= salary && salary <= 100_000
		case age < 60:
			if 1 <= elevel && elevel <= 3 {
				return 50_000 <= salary && salary <= 100_000
			}
			return 75_000 <= salary && salary <= 125_000
		default:
			if 2 <= elevel && elevel <= 4 {
				return 50_000 <= salary && salary <= 100_000
			}
			return 25_000 <= salary && salary <= 75_000
		}

	case 5:
		switch {
		case age < 40:
			if 50_000 <= salary && salary <= 100_000 {
				return 100_000 <= loan && loan <= 300_000
			}
			return 200_000 <= loan && loan <= 400_000
		case age < 60:
			if 75_000 <= salary && salary <= 125_000 {
				return 200_000 <= loan && loan <= 400_000
			}
			return 300_000 <= loan && loan <= 500_000
		default:
			if 25_000 <= salary && salary <= 75_000 {
				return 300_000 <= loan && loan <= 500_000
			}
			return 100_000 <= loan && loan <= 300_000
		}

	case 6:
		total := salary + commission
		switch {
		case age < 40:
			return 50_000 <= total && total <= 100_000
		case age < 60:
			return 75_000 <= total && total <= 125_000
		default:
			return 25_000 <= total && total <= 75_000
		}

	case 7:
		disposable := 0.67*(salary+commission) - 0.2*loan - 20_000
		return disposable > 0

	case 8:
		disposable := 0.67*(salary+commission) - 5_000*float64(elevel) - 10_000
		return disposable > 0

	case 9:
		disposable := 0.67*(salary+commission) - 5_000*float64(elevel) - 0.2*loan - 10_000
		return disposable > 0

	case 10:
		var equity float64
		if hyears >= 20 {
			equity = 0.1 * hvalue * (hyears - 20)
		}
		disposable := 0.67*(salary+commission) - 5_000*float64(elevel) + 0.2*equity - 10_000
		return disposable > 0

	default:
		panic("synth: unknown function")
	}
}
