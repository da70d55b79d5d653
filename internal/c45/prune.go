package c45

import "math"

// upperErrorBound is C4.5's pessimistic error estimate: the one-sided
// upper confidence bound (at confidence factor CF) on the true error
// probability of a leaf that mislabels e of n training tuples, times n.
//
// Like the original C4.5, it inverts the exact binomial distribution
// (the Clopper-Pearson upper limit): the largest p with
// P(Bin(n, p) <= e) >= CF. The normal approximation is badly wrong for
// the small leaves where pruning decisions actually happen — e.g.
// U(0, 2) is 0.50 errors exactly but only ~0.21 under the approximation
// — and an approximate bound leaves noisy trees almost unpruned.
func upperErrorBound(e, n, cf float64) float64 {
	if n <= 0 {
		return 0
	}
	if cf <= 0 {
		return n
	}
	if cf >= 1 {
		return e
	}
	eInt := int(math.Floor(e + 1e-9))
	// Closed form for zero observed errors: P(X = 0) = (1-p)^n = CF.
	if eInt <= 0 {
		return n * (1 - math.Pow(cf, 1/n))
	}
	if e >= n {
		return n
	}
	// Large nodes: the normal approximation is accurate and the exact
	// CDF would sum e+1 terms per bisection step. Pruning decisions are
	// driven by small leaves, where we stay exact.
	if n > 400 {
		z := zForCF(cf)
		f := e / n
		num := f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))
		den := 1 + z*z/n
		return num / den * n
	}
	lo, hi := e/n, 1.0
	for iter := 0; iter < 50; iter++ {
		p := (lo + hi) / 2
		if binomialCDF(eInt, n, p) >= cf {
			lo = p
		} else {
			hi = p
		}
	}
	return n * (lo + hi) / 2
}

// binomialCDF computes P(Bin(n, p) <= e) in log space, term by term.
func binomialCDF(e int, n, p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	var sum float64
	// log C(n, i) built incrementally: C(n,0)=1; C(n,i)=C(n,i-1)*(n-i+1)/i.
	logC := 0.0
	for i := 0; i <= e; i++ {
		if i > 0 {
			logC += math.Log((n - float64(i) + 1) / float64(i))
		}
		sum += math.Exp(logC + float64(i)*logP + (n-float64(i))*logQ)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// zForCF converts a one-sided confidence factor into the corresponding
// standard normal quantile z such that P(Z > z) = cf, via a rational
// approximation of the inverse normal CDF (Abramowitz & Stegun 26.2.23).
func zForCF(cf float64) float64 {
	if cf <= 0 {
		return 8 // effectively infinite pessimism
	}
	if cf >= 0.5 {
		return 0
	}
	t := math.Sqrt(-2 * math.Log(cf))
	return t - (2.515517+0.802853*t+0.010328*t*t)/
		(1+1.432788*t+0.189269*t*t+0.001308*t*t*t)
}

// prune applies pessimistic subtree replacement bottom-up: an internal
// node becomes a leaf when the pessimistic error of the collapsed leaf
// does not exceed the summed pessimistic errors of its children.
func (t *Tree) prune(nd *Node) {
	if nd.IsLeaf() {
		return
	}
	for _, ch := range nd.Children {
		t.prune(ch)
	}
	subtree := t.subtreeUpperError(nd)
	asLeaf := upperErrorBound(nd.trainErrors(), nd.n(), t.cfg.CF)
	if asLeaf <= subtree+1e-9 {
		nd.Attr = -1
		nd.Categorical = false
		nd.Children = nil
	}
}

// subtreeUpperError sums the pessimistic errors of the subtree's leaves.
func (t *Tree) subtreeUpperError(nd *Node) float64 {
	if nd.IsLeaf() {
		return upperErrorBound(nd.trainErrors(), nd.n(), t.cfg.CF)
	}
	var s float64
	for _, ch := range nd.Children {
		s += t.subtreeUpperError(ch)
	}
	return s
}
