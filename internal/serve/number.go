package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file converts the /v1/decode body's numbers in the same loop that
// checks their grammar. The loop gathers up to 19 significant digits into a
// uint64 mantissa and a decimal exponent; the value is then mantissa·10^exp
// rounded to the nearest float64, found by the first of three steps that
// applies:
//
//   - Clinger's fast path: a mantissa of at most 2^53 and a power of ten of
//     at most 10^22 are both exact float64s, so one IEEE multiply or divide
//     rounds their product correctly;
//   - the Eisel–Lemire algorithm, as Go's strconv implements it
//     (strconv/eisel_lemire.go, after Nigel Tao's write-up at
//     https://nigeltao.github.io/blog/2020/eisel-lemire.html): a 64×128-bit
//     product with a truncated power of ten, which either proves its
//     rounding or declines;
//   - strconv.ParseFloat on the token for the rest: more than 19 significant
//     digits, exponents outside the table, products Eisel–Lemire declines
//     (halfway-ambiguous ones, subnormals, overflow) and underflow.
//
// Every step yields the correctly rounded value, so the result is bit for bit
// strconv.ParseFloat's, which is what encoding/json returns (FuzzParseNumber
// holds the scan to both).

// maxMantDigits is the number of significant digits a uint64 always holds.
const maxMantDigits = 19

// maxExpValue caps the explicit exponent while it is read; a larger
// one sends the number to strconv.
const maxExpValue = 10000

// exactPow10 holds the powers of ten that are exact float64s.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The Eisel–Lemire table covers 10^minPow10Exp through 10^maxPow10Exp, the
// range strconv's table covers.
const (
	minPow10Exp = -348
	maxPow10Exp = 347
)

// pow10Mant[q-minPow10Exp] is 10^q's 128-bit mantissa {low, high}: the top
// 128 bits of its binary expansion, rounded down, with the high bit set. The
// binary exponent is implied (see eiselLemire64). Built at init rather than
// listed, it matches strconv's detailedPowersOfTen entry for entry.
var pow10Mant = func() (t [maxPow10Exp - minPow10Exp + 1][2]uint64) {
	ten := big.NewInt(10)
	var m, d big.Int
	for q := minPow10Exp; q <= maxPow10Exp; q++ {
		if q >= 0 {
			m.Exp(ten, big.NewInt(int64(q)), nil)
			if n := m.BitLen(); n > 128 {
				m.Rsh(&m, uint(n-128))
			} else {
				m.Lsh(&m, uint(128-n))
			}
		} else {
			// floor(2^k / 10^-q) with k large enough for 128 quotient bits.
			d.Exp(ten, big.NewInt(int64(-q)), nil)
			m.Lsh(big.NewInt(1), uint(d.BitLen()+127))
			m.Quo(&m, &d)
			if n := m.BitLen(); n > 128 {
				m.Rsh(&m, uint(n-128))
			}
		}
		var w [16]byte
		m.FillBytes(w[:])
		t[q-minPow10Exp] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
	}
	return t
}()

// numVerdict is scanNumber's judgement of a token.
type numVerdict uint8

const (
	numOK         numVerdict = iota
	numOutOfRange            // valid grammar, beyond float64's range
	numInvalid               // not a JSON number
)

// scanNumber scans the JSON number that starts data and converts it. n is
// the number of bytes the number spans, or for numInvalid the offset of the
// byte where the grammar broke. For numOutOfRange v is strconv's ±Inf.
func scanNumber(data []byte) (v float64, n int, verdict numVerdict) {
	i := 0
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, exp := 0, 0 // digits in mant; the number is mant·10^exp
	fast := true    // false when mant·10^exp is not the number's exact value
	if i >= len(data) {
		return 0, i, numInvalid
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if nd < maxMantDigits {
				mant, nd = mant*10+uint64(d), nd+1
			} else {
				exp++
				if d != 0 {
					fast = false
				}
			}
		}
	default:
		return 0, i, numInvalid
	}
	if i < len(data) && data[i] == '.' {
		i++
		start, nd0 := i, nd
		if nd == 0 { // leading zeros only move the point
			for i < len(data) && data[i] == '0' {
				i++
			}
		}
		zeros := i - start
		for nd+8 <= maxMantDigits && i+8 <= len(data) {
			w := binary.LittleEndian.Uint64(data[i:])
			if !eightDigits(w) {
				break
			}
			mant, nd, i = mant*1e8+eightDigitsValue(w), nd+8, i+8
		}
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if nd < maxMantDigits {
				mant, nd = mant*10+uint64(d), nd+1
			} else if d != 0 {
				fast = false
			}
		}
		if i == start {
			return 0, i, numInvalid
		}
		exp -= zeros + nd - nd0
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if e < maxExpValue {
				e = e*10 + int(d)
			} else {
				fast = false
			}
		}
		if i == start {
			return 0, i, numInvalid
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if mant == 0 {
		// Every digit was zero (dropped digits follow a nonzero one).
		if neg {
			return math.Copysign(0, -1), i, numOK
		}
		return 0, i, numOK
	}
	if fast {
		if mant <= 1<<53 && -len(exactPow10) < exp && exp < len(exactPow10) {
			f := float64(mant)
			if exp < 0 {
				f /= exactPow10[-exp]
			} else {
				f *= exactPow10[exp]
			}
			if neg {
				f = -f
			}
			return f, i, numOK
		}
		if f, ok := eiselLemire64(mant, exp, neg); ok {
			return f, i, numOK
		}
	}
	f, err := strconv.ParseFloat(string(data[:i]), 64)
	if err != nil { // the grammar is checked, so only ErrRange is left
		return f, i, numOutOfRange
	}
	return f, i, numOK
}

// eightDigits reports whether all eight bytes of w, loaded little-endian,
// are ASCII digits: each byte's high nibble is 3 and adding 6 to it does not
// carry into the high nibble.
func eightDigits(w uint64) bool {
	return w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 == 0x3333333333333333
}

// eightDigitsValue converts eight ASCII digits, loaded little-endian (the
// first digit in the low byte), to their value with three multiplies: it
// combines digits in pairs, then pairs of pairs, then the two halves.
func eightDigitsValue(w uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return (w&mask*mul1 + w>>16&mask*mul2) >> 32
}

// eiselLemire64 is strconv's eiselLemire64 over pow10Mant: the float64
// nearest man·10^exp10 for a nonzero man, or ok false when the 128-bit
// product cannot prove the rounding, or the result is subnormal, infinite or
// out of the table.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if exp10 < minPow10Exp || maxPow10Exp < exp10 {
		return 0, false
	}
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Mant[exp10-minPow10Exp]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: zero or wrap-around means subnormal, 0x7FF or
	// more means Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
