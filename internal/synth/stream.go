package synth

import (
	"arcs/internal/dataset"
)

// maxDraws bounds the rejection loop that realizes Config.FracA. A
// tuple still short of its wanted label after maxDraws draws keeps its
// last draw, labeled by the function, so labels stay truthful and only
// that tuple misses the fraction target. The longest run any
// configuration in this repository needs is 6,347 draws (Function 10,
// whose natural Group A share is 99.8%), so the bound changes no value.
const maxDraws = 1 << 16

// Stream is the synthetic generator: tuple i is a pure function of
// (Config.Seed, i), so the stream can be produced out of order,
// restarted anywhere, and — through dataset.FuncSource index-range
// sharding — generated concurrently by ingest workers with no shared
// RNG state. That makes 10M–100M-tuple benchmark workloads possible
// without materializing a table: each worker synthesizes its own index
// range on the fly.
//
// Each tuple draws from its own splitmix64 sequence, seeded from the
// configured seed and the tuple's index.
type Stream struct {
	cfg    Config
	schema *dataset.Schema
}

// NewStream constructs the generator after validating the config.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, schema: NewSchema()}, nil
}

// Schema returns the nine-attribute person schema plus the group label.
func (s *Stream) Schema() *dataset.Schema { return s.schema }

// Source adapts the stream into a shardable dataset source of cfg.N
// tuples. Each call returns an independent source with its own tuple
// buffer; all of them yield identical data.
func (s *Stream) Source() *dataset.FuncSource {
	return dataset.NewFuncSource(s.schema, s.cfg.N, s.At)
}

// At writes tuple i into out. It is safe for concurrent calls with
// distinct out buffers and performs no allocations.
func (s *Stream) At(i int, out dataset.Tuple) { s.at(i, out, maxDraws) }

// at is At with the rejection loop bounded at limit draws.
func (s *Stream) at(i int, out dataset.Tuple, limit int) {
	// Seed the per-index sequence by folding the index into the
	// configured seed through one splitmix64 step — adjacent indices
	// land in uncorrelated parts of the sequence space.
	rng := sm64{state: mix64(uint64(s.cfg.Seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15)}

	if s.cfg.OutlierFraction > 0 && rng.float64() < s.cfg.OutlierFraction {
		// Outlier: uniform attributes, label chosen by target fraction
		// (or fair coin when fraction control is off). These tuples
		// belong to the group per their label but lie outside every
		// generating rule with high probability (paper §3.3).
		s.drawUniform(&rng, out)
		frac := s.cfg.FracA
		if frac == 0 {
			frac = 0.5
		}
		if rng.float64() < frac {
			out[ColGroup] = 0 // GroupA
		} else {
			out[ColGroup] = 1 // GroupOther
		}
		s.perturb(&rng, out)
		return
	}

	if s.cfg.FracA > 0 {
		// Fraction control: decide the wanted label first, then redraw
		// attribute vectors until the function agrees or the bound is hit.
		wantA := rng.float64() < s.cfg.FracA
		s.drawUniform(&rng, out)
		for n := 1; n < limit && IsGroupA(s.cfg.Function, out) != wantA; n++ {
			s.drawUniform(&rng, out)
		}
	} else {
		s.drawUniform(&rng, out)
	}
	if IsGroupA(s.cfg.Function, out) {
		out[ColGroup] = 0
	} else {
		out[ColGroup] = 1
	}
	s.perturb(&rng, out)
}

// drawUniform fills the nine person attributes from their domains.
func (s *Stream) drawUniform(rng *sm64, out dataset.Tuple) {
	out[ColSalary] = uniform(rng, SalaryMin, SalaryMax)
	if out[ColSalary] >= 75_000 {
		out[ColCommission] = 0
	} else {
		out[ColCommission] = uniform(rng, CommissionMin, CommissionMax)
	}
	out[ColAge] = uniform(rng, AgeMin, AgeMax)
	out[ColELevel] = float64(rng.intn(NumELevels))
	out[ColCar] = float64(rng.intn(NumCars)) // codes 0..19 = cars 1..20
	zip := rng.intn(NumZipcodes)
	out[ColZipcode] = float64(zip)
	// hvalue is uniform in [0.5k, 1.5k] * 100000 where k depends on zipcode.
	k := float64(zip + 1)
	out[ColHValue] = uniform(rng, 0.5*k*100_000, 1.5*k*100_000)
	out[ColHYears] = uniform(rng, HYearsMin, HYearsMax)
	out[ColLoan] = uniform(rng, LoanMin, LoanMax)
}

// perturb applies the perturbation factor to the quantitative attributes
// after labeling, modeling fuzzy boundaries between disjuncts. The offset
// is uniform in ±P/2 of the attribute's domain width and the result is
// clamped back into the domain.
func (s *Stream) perturb(rng *sm64, out dataset.Tuple) {
	p := s.cfg.Perturbation
	if p <= 0 {
		return
	}
	jitter := func(v, lo, hi float64) float64 {
		w := (hi - lo) * p
		v += (rng.float64() - 0.5) * w
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		return v
	}
	out[ColSalary] = jitter(out[ColSalary], SalaryMin, SalaryMax)
	if out[ColCommission] > 0 {
		out[ColCommission] = jitter(out[ColCommission], CommissionMin, CommissionMax)
	}
	out[ColAge] = jitter(out[ColAge], AgeMin, AgeMax)
	out[ColHValue] = jitter(out[ColHValue], 0.5*100_000, 1.5*float64(NumZipcodes)*100_000)
	out[ColHYears] = jitter(out[ColHYears], HYearsMin, HYearsMax)
	out[ColLoan] = jitter(out[ColLoan], LoanMin, LoanMax)
}

func uniform(rng *sm64, lo, hi float64) float64 {
	return lo + rng.float64()*(hi-lo)
}

// sm64 is a splitmix64 sequence — a tiny, allocation-free PRNG whose
// whole state is one word, so seeding one per tuple index costs
// nothing. Quality is ample for synthetic benchmark data.
type sm64 struct {
	state uint64
}

func (r *sm64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *sm64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n) by modulo reduction; the bias
// is below 2^-50 for the single-digit n used here.
func (r *sm64) intn(n int) int {
	return int(r.next() % uint64(n))
}
