package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// checkNumber holds scanNumber to its two oracles on one input: it must
// accept exactly what json.Valid accepts as a bare number, and an accepted
// number must convert bit for bit as strconv.ParseFloat does, with the same
// out-of-range verdict.
func checkNumber(t *testing.T, in []byte) {
	t.Helper()
	last := len(in) - 1
	wantValid := json.Valid(in) && len(in) > 0 &&
		(in[0] == '-' || '0' <= in[0] && in[0] <= '9') && '0' <= in[last] && in[last] <= '9'
	v, n, verdict := scanNumber(in)
	if valid := verdict != numInvalid && n == len(in); valid != wantValid {
		t.Fatalf("scanNumber(%q) spans %d bytes with verdict %d; json.Valid says number %v", in, n, verdict, wantValid)
	}
	if !wantValid {
		return
	}
	want, err := strconv.ParseFloat(string(in), 64)
	if (verdict == numOutOfRange) != (err != nil) {
		t.Fatalf("scanNumber(%q) verdict %d, strconv error %v", in, verdict, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("scanNumber(%q) = %v (%#x), strconv %v (%#x)", in, v, math.Float64bits(v), want, math.Float64bits(want))
	}
}

// hardNumbers are inputs at the edges of each conversion step.
var hardNumbers = []string{
	"0", "-0", "0.0", "-0.0e+5", "0e999999999999", "-0.000000000000000000000000",
	"1", "-1", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"1e22", "1e23", "-1e23", "1e-22", "1e-23", "123456789e22", "4.5e15", "9.5e-22",
	// The float64 halfway literal between 1 and its successor, and its
	// neighbours one digit either side.
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"1.000000000000000111022302462515654042363166809082031250000000001",
	// Smallest subnormal, and around it.
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "3e-324",
	// Smallest normal, largest subnormal.
	"2.2250738585072014e-308", "2.2250738585072011e-308", "2.2250738585072012e-308",
	// Largest float64, one ULP past it, and the overflow threshold.
	"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623159e308",
	"1.7976931348623158e308", "179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"1e308", "1e309", "-1e309", "1e400", "-1e400", "1e-400", "-1e-400", "1e-350", "1e-349",
	// 25-digit mantissas, exact and not.
	"1234567890123456789012345", "1234567890123456789000000", "0.1234567890123456789012345",
	"-9999999999999999999999999e-25", "1000000000000000000000000e-24", "0.0000000000000000000000001234567890123456789012345",
	// Exponents with many digits.
	"1e0000000000000000000000000001", "1e-0000000000000000000000000400", "1E+00000000000000000000000308",
	"1e99999999999999999999", "1e-99999999999999999999", "0.000000001e000000000000000000000009",
	"1" + strings.Repeat("0", 400) + "e-400", "0." + strings.Repeat("0", 400) + "1e401",
	"0." + strings.Repeat("0", 10000) + "1e10005", "1" + strings.Repeat("0", 10000) + "e-10010",
	// Typical wire values and the eight-digit stride.
	"0.7071067811865476", "-0.7071067811865475", "0.12345678", "0.123456789", "0.1234567890123456789",
	"12345678.12345678", "1.5e-7", "3.0517578125e-05", "6.103515625e-05",
	// Not numbers.
	"", "-", "+1", "01", "-01", "1.", ".5", "1e", "1e+", "1e-", "1.e5", "0x10", "1_000", "NaN", "Infinity",
	"-Infinity", "1 ", " 1", "1e5.5", "--1", "1.2.3", "1234567a", "0.12345678a", "١",
}

func TestParseNumber(t *testing.T) {
	for _, s := range hardNumbers {
		checkNumber(t, []byte(s))
	}
	// Bulk: random float64s, uniform over bit patterns (every binade,
	// subnormals included) and over typical magnitudes, each in the
	// shortest 'g' form, in 'e' form at 0-19 digits, and in shortest 'f'
	// form.
	n := 1 << 20
	if raceEnabled || testing.Short() {
		n = 1 << 14
	}
	r := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	for i := 0; i < n; i++ {
		var f float64
		if i%2 == 0 {
			f = math.Float64frombits(r.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		} else {
			f = r.NormFloat64() * math.Pow(10, float64(r.IntN(40)-20))
		}
		buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
		checkNumber(t, buf)
		buf = strconv.AppendFloat(buf[:0], f, 'e', i%20, 64)
		checkNumber(t, buf)
		buf = strconv.AppendFloat(buf[:0], f, 'f', -1, 64)
		checkNumber(t, buf)
	}
}

// FuzzParseNumber is a differential fuzzer: the fused number scan must
// accept exactly the bare numbers json.Valid accepts and convert each bit
// for bit as strconv.ParseFloat does, out-of-range verdict included.
func FuzzParseNumber(f *testing.F) {
	for _, s := range hardNumbers {
		if len(s) <= 512 { // TestParseNumber covers the 10 KB ones, which slow mutation
			f.Add([]byte(s))
		}
	}
	f.Fuzz(checkNumber)
}
