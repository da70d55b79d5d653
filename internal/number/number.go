// Package number is the exact decimal-to-float64 kernel that CSV ingest
// and the /apply wire codec parse numbers with: Clinger's fast path,
// then Eisel–Lemire, then strconv.ParseFloat for everything else, so
// every value and every error is strconv's.
package number

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// Parse converts a field to a float64. It returns exactly what
// strconv.ParseFloat(field, 64) returns, value and error, and does not
// allocate when Scan takes the field.
func Parse[T string | []byte](field T) (float64, error) {
	if f, ok := Scan(field); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(field), 64)
}

// Scan is the number kernel. It parses a field matching
// -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? to the correctly rounded
// float64, the value strconv.ParseFloat returns for it.
//
// ok is false, and the caller falls back to strconv, when s does not
// match that grammar (a sign other than a leading '-', no digit before
// or after the '.', an 'e' without exponent digits, anything after the
// number), when the number has more than 19 significant digits, or when
// neither exact path below applies: an ambiguous Eisel–Lemire result, a
// subnormal or overflowing value, or a decimal exponent outside the
// power table.
func Scan[T string | []byte](s T) (f float64, ok bool) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		i = 1
	}
	digits := i
	var man uint64
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		man = man*10 + uint64(d)
	}
	nd := i - digits
	if nd == 0 {
		return 0, false
	}
	exp := 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s); i++ {
			d := s[i] - '0'
			if d > 9 {
				break
			}
			man = man*10 + uint64(d)
		}
		if i == frac {
			return 0, false
		}
		nd += i - frac
		exp = frac - i
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(s); i++ {
			d := s[i] - '0'
			if d > 9 {
				break
			}
			if e < 10000 { // far outside the table; stop growing
				e = e*10 + int(d)
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(s) {
		return 0, false
	}
	if nd > 19 {
		// Leading zeros add nothing to the mantissa, which is exact when
		// at most 19 digits follow them.
		for k := digits; k < i && (s[k] == '0' || s[k] == '.'); k++ {
			if s[k] == '0' {
				nd--
			}
		}
		if nd > 19 {
			return 0, false
		}
	}

	// Clinger's fast path: the mantissa and the power of ten are both
	// exact doubles, so one IEEE multiplication or division rounds the
	// product correctly.
	if man < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(man)
		if neg {
			f = -f
		}
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		return f, true
	}
	return eiselLemire(man, exp, neg)
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The decimal exponents the power table covers, both inclusive.
const (
	minPow10 = -348
	maxPow10 = 347
)

// u128 is an unsigned 128-bit integer.
type u128 struct{ hi, lo uint64 }

// powersOfTen returns, for each q in [minPow10, maxPow10] at index
// q-minPow10, the 128 leading bits of 10^q rounded down: the mantissa m
// with 2^127 <= m < 2^128 and 10^q ≈ m·2^e. The exponent e is not stored;
// eiselLemire derives it from q. The table is computed with math/big on
// first use, well under a millisecond once per process.
var powersOfTen = sync.OnceValue(func() *[maxPow10 - minPow10 + 1]u128 {
	var t [maxPow10 - minPow10 + 1]u128
	row := func(m *big.Int) u128 {
		var b [16]byte
		m.FillBytes(b[:])
		return u128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p := big.NewInt(1) // 10^k
	m := new(big.Int)
	for k := 0; k <= -minPow10; k++ {
		if k > 0 {
			p.Mul(p, big.NewInt(10))
		}
		b := p.BitLen()
		if k <= maxPow10 {
			// 10^k shifted so that it has exactly 128 bits, truncated
			// when it has more.
			if b > 128 {
				m.Rsh(p, uint(b-128))
			} else {
				m.Lsh(p, uint(128-b))
			}
			t[k-minPow10] = row(m)
		}
		if k > 0 {
			// 10^-k scaled by 2^(b+127): floor(2^(b+127) / 10^k) lies in
			// [2^127, 2^128) because 2^(b-1) < 10^k < 2^b.
			m.Lsh(big.NewInt(1), uint(b+127))
			m.Quo(m, p)
			t[-k-minPow10] = row(m)
		}
	}
	return &t
})

// eiselLemire computes man·10^exp10, rounded to the nearest float64, by
// the algorithm of Lemire, "Number Parsing at a Gigabyte per Second"
// (2021): multiply the normalized mantissa by the truncated 128-bit
// power of ten and round the product's top 54 bits to 53. ok is false
// when the truncation leaves the rounding undecided, when the result is
// subnormal, zero by underflow or infinite, or when exp10 lies outside
// the power table. A mantissa of at most 19 digits is exact, so a
// result with ok true is the correctly rounded one.
//
// The function body is adapted from eiselLemire64 in the Go standard
// library's strconv/eisel_lemire.go, which carries this notice (the
// licence text is in NOTICE at the repository root):
//
//	Copyright 2020 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minPow10]

	// Normalize the mantissa so that its top bit is set. The binary
	// exponent of 10^exp10 is floor(exp10·log2(10)), and 217706/2^16
	// approximates log2(10) closely enough for every exp10 in the table.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the product decide the rounding unless the
	// 9 bits below the kept 54 are all ones and the low half may carry
	// into them; then the power's low 64 bits settle it, or nothing can.
	hi, lo := bits.Mul64(man, pow.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow.lo)
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits: the 53 of the result and one to round with.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// A product exactly halfway between two doubles would round to the
	// even one, but the truncated power may have dropped a remainder
	// that puts the true value above halfway: undecided.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round half to even, and renormalize when rounding carries into
	// a 54th bit.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is 0 or wrapped around for subnormals, >= 0x7FF for overflow.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// EdgeCases are inputs at the kernel's boundaries: signs and zeros, the
// Clinger limits (2^53, 10^22), the 19-digit limit, the ends of the
// float64 range, and syntax only strconv accepts. The kernel's tests
// and those of the parsers built on it (CSV fields, /apply bodies) run
// every one.
var EdgeCases = []string{
	"0", "-0", "00012", "0.0", "-0.000", "0e999999", "-0e-999999", "1", "-1", "7.5", "-1.5",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"9007199254740993e-5", "1e22", "1e23", "1.5e22", "4503599627370497e22", "1E5", "1e05", "1e+05", "2.5e-3",
	"1.7976931348623157e308", "1.7976931348623159e308", "-1.7976931348623157e308", "1e308", "1e309",
	"2.2250738585072014e-308", "2.2250738585072011e-308", "4.9e-324", "5e-324", "1e-400", "1e400",
	"1e347", "1e-348", "1e348", "1e-349",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
	"18446744073709551616", "0.1234567890123456789", "0.12345678901234567890", "1.234567890123456789e-100",
	"0.000000000000000000000000000001234", "00000000000000000000000000000012", "123456789012345678901234567890e-10",
	"1e", "1e+", "1e-", "1.", "1.e5", ".5", "-.5", "+1", "1_0", "0x1p-2", "0x10", "Inf", "-Inf", "+Inf",
	"NaN", "infinity", "--1", "-", "", "1.5.3", "1e5e3", "1ee5", "1,5", "1 ", " 1", "1\r", "12abc",
}
