package counts

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind names a count-backend implementation. The zero value is Auto:
// pick from the memory budget.
type Kind int

const (
	// Auto selects dense when the full grid fits the budget and sparse
	// otherwise.
	Auto Kind = iota
	// Dense is the contiguous in-memory array — the paper's BinArray and
	// the byte-identity reference. Fastest per tuple; memory is
	// nx×ny×(nseg+1)×4 bytes regardless of occupancy.
	Dense
	// Sparse is the hash-indexed slab for high-resolution mostly-empty
	// grids: memory scales with occupied cells, not grid cells.
	Sparse
)

// String implements fmt.Stringer with the names ParseKind accepts.
func (k Kind) String() string {
	switch k {
	case Auto:
		return "auto"
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindOf reports the kind of a built backend. Unknown (out-of-tree)
// backends report Auto.
func KindOf(b Backend) Kind {
	switch b.(type) {
	case *DenseArray:
		return Dense
	case *SparseArray:
		return Sparse
	default:
		return Auto
	}
}

// ParseKind parses a backend name as accepted by the -counts-backend
// flags and job specs. The empty string means Auto.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "dense":
		return Dense, nil
	case "sparse":
		return Sparse, nil
	default:
		return Auto, fmt.Errorf("counts: unknown backend %q (want auto, dense or sparse)", s)
	}
}

// ParseBudget parses a -mem-budget flag value: a byte count with an
// optional K/M/G/T suffix (binary multiples), "off"/"unlimited" for no
// cap, or empty for the 1 GiB default.
func ParseBudget(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch s {
	case "":
		return 0, nil
	case "off", "unlimited", "none":
		return -1, nil
	}
	mult := int64(1)
	trimmed := strings.TrimSuffix(s, "b")
	if len(trimmed) > 0 {
		switch trimmed[len(trimmed)-1] {
		case 'k':
			mult = 1 << 10
		case 'm':
			mult = 1 << 20
		case 'g':
			mult = 1 << 30
		case 't':
			mult = 1 << 40
		}
		if mult > 1 {
			trimmed = strings.TrimSpace(trimmed[:len(trimmed)-1])
		}
	}
	if mult == 1 {
		trimmed = s
	}
	n, err := strconv.ParseInt(trimmed, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("counts: bad memory budget %q (want bytes, a K/M/G/T size, or off)", s)
	}
	if mult > 1 && n > (int64(^uint64(0)>>1))/mult {
		return 0, fmt.Errorf("counts: memory budget %q overflows", s)
	}
	return n * mult, nil
}

// Options configures a count build: the backend choice and the budget
// the choice is made against. The zero value selects Auto under the
// 1 GiB default budget, which is dense for any grid that fits.
type Options struct {
	// Kind pins a backend; Auto dispatches on MemBudget.
	Kind Kind
	// MemBudget is the advisory cap in bytes for in-memory count state.
	// 0 applies the 1 GiB default; negative means unlimited.
	MemBudget int64
}

// budget resolves the effective budget: the default for 0, otherwise
// the plumbed value (negative = unlimited, normalized to -1).
func (o Options) budget() int64 {
	if o.MemBudget == 0 {
		return defaultMemBudget
	}
	if o.MemBudget < 0 {
		return -1
	}
	return o.MemBudget
}

// resolveKind pins or auto-selects the backend for a build. The Auto
// policy: dense while the full grid fits the budget (it is the fastest
// and the reference), sparse otherwise; an unlimited budget always
// picks dense. The budget never refuses sparse, whose memory follows
// the occupied cells, so every grid builds. Each worker of a sharded
// build holds private count state, so the budget it selects against is
// the plumbed budget divided by the worker count.
func resolveKind(spec Spec, opts Options, workers int) Kind {
	budget := opts.budget()
	switch {
	case opts.Kind != Auto:
		return opts.Kind
	case budget <= 0:
		return Dense
	case workers > 1:
		budget = max(budget/int64(workers), 1)
	}
	need, err := memNeeded(spec.XBinner.NumBins(), spec.YBinner.NumBins(), spec.NSeg)
	if err == nil && need <= budget {
		return Dense
	}
	return Sparse
}
