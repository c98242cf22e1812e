package isotonic

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzValues decodes fuzz bytes into a tie-heavy sequence. The low
// four bits of the first byte give an alphabet size k of 1 to 16. With
// its top bit clear the alphabet is the half-integers -2, -1.5, ...;
// with it set the alphabet is the next k little-endian float64s, which
// may be any value of magnitude up to maxFuzzMagnitude. Each later
// byte picks one alphabet value. Inputs of over 21 values reach the
// third level of the heap path's 4-ary heap, and integer inputs
// spanning fewer than twice their length take the counting path;
// maxFuzzValues keeps the quadratic PAV oracle fast.
func fuzzValues(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	k := int(data[0]&15) + 1
	raw := data[0]&0x80 != 0
	data = data[1:]
	alphabet := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		if !raw {
			alphabet = append(alphabet, float64(i)/2-2)
			continue
		}
		if len(data) < 8 {
			break
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.Abs(v) <= maxFuzzMagnitude {
			alphabet = append(alphabet, v)
		}
	}
	if len(alphabet) == 0 {
		return nil
	}
	if len(data) > maxFuzzValues {
		data = data[:maxFuzzValues]
	}
	ys := make([]float64, len(data))
	for i, b := range data {
		ys[i] = alphabet[int(b)%len(alphabet)]
	}
	return ys
}

const maxFuzzValues = 256

// maxFuzzMagnitude drops NaN, ±Inf and values so large that the PAV
// oracle's even-block median (a+b)/2 or a summed cost would overflow.
const maxFuzzMagnitude = 1e300

// rawFuzzInput encodes picks over a float64 alphabet in fuzzValues'
// raw mode.
func rawFuzzInput(alphabet []float64, picks []byte) []byte {
	data := []byte{0x80 | byte(len(alphabet)-1)}
	for _, v := range alphabet {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return append(data, picks...)
}

// FuzzFitMonotone checks on tie-heavy inputs that all three solvers
// return monotone outputs of the right length, that the two L1 solvers
// agree on cost, and that FitL1 and FitL1InPlace equal the binary-heap
// reference bit for bit, so that neither path turns a -0 into +0. An
// input of int64 values also goes through FitL1Ints at its true
// minimum and maximum, which must give the same bits.
func FuzzFitMonotone(f *testing.F) {
	f.Add([]byte{15, 1, 2, 3, 4})
	f.Add([]byte{15, 4, 3, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0})
	saw := make([]byte, 301)
	for i := range saw {
		saw[i] = byte(i*7) ^ byte(i>>3)
	}
	f.Add(saw)
	ramp := make([]byte, 200)
	ramp[0] = 9
	for i := 1; i < len(ramp); i++ {
		ramp[i] = byte(min(i, 12) + i%3)
	}
	f.Add(ramp)
	f.Add(rawFuzzInput([]float64{-1e12, 1e12}, []byte{0, 1, 0, 1}))
	mixed := make([]byte, 120)
	for i := range mixed {
		mixed[i] = byte(i*5+i/7) % 8
	}
	f.Add(rawFuzzInput([]float64{0.1, -3.7e-300, 5e18, 2.5, math.Copysign(0, -1), 0, -1e300, 1e300}, mixed))
	// Integer alphabets spanning fewer values than twice the input's
	// length take the counting path: one with negatives, one at the
	// top of its magnitude range. Mixed with -0 they take the heap.
	f.Add(rawFuzzInput([]float64{-5, -3, -2, 0, 1, 4}, mixed))
	f.Add(rawFuzzInput([]float64{1<<52 - 1, 1<<52 - 9, 1<<52 - 4}, saw[:90]))
	f.Add(rawFuzzInput([]float64{math.Copysign(0, -1), -2, -1, 1, 3}, mixed))
	f.Fuzz(func(t *testing.T, data []byte) {
		ys := fuzzValues(data)
		l1, pav := FitL1(ys), FitL1PAV(ys)
		for name, z := range map[string][]float64{
			"L1": l1, "L1PAV": pav, "L2": FitL2(ys),
		} {
			if len(z) != len(ys) {
				t.Fatalf("%s: length %d != %d", name, len(z), len(ys))
			}
			if !IsMonotone(z) {
				t.Fatalf("%s: not monotone: %v -> %v", name, ys, z)
			}
		}
		want := fitL1Reference(ys)
		// With both zeros in the input, which of two equal maxima a heap
		// keeps on top depends on its layout, so there a zero may carry
		// either sign.
		bothZeros := hasBits(ys, 0) && hasBits(ys, 1<<63)
		fits := map[string][]float64{
			"FitL1": l1, "FitL1InPlace": FitL1InPlace(append([]float64(nil), ys...)),
		}
		if lo, hi, ok := intBounds(ys); ok {
			fits["FitL1Ints"] = FitL1Ints(append([]float64(nil), ys...), lo, hi, new(Scratch))
		}
		for name, got := range fits {
			if len(got) != len(want) {
				t.Fatalf("%s: length %d != reference %d", name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(bothZeros && got[i] == want[i]) {
					t.Fatalf("%s: index %d: %v != reference %v on %v", name, i, got[i], want[i], ys)
				}
			}
		}
		c1 := CostL1(ys, want)
		c2 := CostL1(ys, pav)
		if math.Abs(c1-c2) > 1e-6*(1+math.Abs(c1)) {
			t.Fatalf("L1 solvers disagree: %f vs %f on %v", c1, c2, ys)
		}
	})
}

// hasBits reports whether some value of ys has the bit pattern b.
func hasBits(ys []float64, b uint64) bool {
	return slices.ContainsFunc(ys, func(y float64) bool { return math.Float64bits(y) == b })
}

// TestFuzzValuesDecoding pins both decoder modes, so the fuzz seeds
// above mean what they say.
func TestFuzzValuesDecoding(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		want []float64
	}{
		{[]byte{15, 1, 2, 3, 4}, []float64{-1.5, -1, -0.5, 0}},
		{[]byte{2, 0, 4, 5}, []float64{-2, -1.5, -1}},
		{rawFuzzInput([]float64{-1e12, 1e12}, []byte{0, 1, 0, 1}), []float64{-1e12, 1e12, -1e12, 1e12}},
		{rawFuzzInput([]float64{math.NaN(), 7.25, math.Inf(1), 1e301}, []byte{0, 9}), []float64{7.25, 7.25}},
		{rawFuzzInput([]float64{math.Inf(-1)}, []byte{0, 0}), nil},
	} {
		got := fuzzValues(tc.data)
		if len(got) != len(tc.want) {
			t.Fatalf("fuzzValues(%v) = %v, want %v", tc.data, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("fuzzValues(%v) = %v, want %v", tc.data, got, tc.want)
			}
		}
	}
}
