package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"decamouflage/internal/testutil"
)

const eps = 1e-9

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// naiveDFT is the O(n^2) reference implementation. It reduces j·k mod n
// before taking the twiddle angle, so every angle is below 2π and the
// reference's own error stays near the rounding of the sum.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j*k%n) / float64(n)
			s += x[j] * cmplx.Rect(1, angle)
		}
		out[k] = s
	}
	return out
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 127, 128} {
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("FFT(n=%d): %v", n, err)
		}
		want := naiveDFT(x)
		for k := range want {
			if !complexClose(got[k], want[k], 1e-7*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTEmptyInput(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("FFT(nil) = nil error")
	}
	if _, err := IFFT(nil); err == nil {
		t.Error("IFFT(nil) = nil error")
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	snapshot := append([]complex128(nil), x...)
	if _, err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != snapshot[i] {
			t.Fatal("FFT mutated its input")
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of an impulse is all ones.
	got, err := FFT([]complex128{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if !complexClose(v, 1, eps) {
			t.Errorf("impulse bin %d = %v, want 1", k, v)
		}
	}
	// DFT of a constant is an impulse at DC.
	got, err = FFT([]complex128{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !complexClose(got[0], 8, eps) {
		t.Errorf("DC bin = %v, want 8", got[0])
	}
	for k := 1; k < 4; k++ {
		if !complexClose(got[k], 0, eps) {
			t.Errorf("bin %d = %v, want 0", k, got[k])
		}
	}
}

// Property: IFFT(FFT(x)) == x for arbitrary lengths.
func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		n := int(seed%60+60)%60 + 1
		x := randomComplex(rng, n)
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(fx)
		if err != nil {
			return false
		}
		for i := range x {
			if !complexClose(back[i], x[i], 1e-8*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval's theorem — sum |x|^2 == (1/n) sum |X|^2.
func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		n := int(seed%50+50)%50 + 2
		x := randomComplex(rng, n)
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		return math.Abs(et-ef/float64(n)) <= 1e-7*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: linearity — FFT(a*x + y) == a*FFT(x) + FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		n := int(seed%40+40)%40 + 1
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x := randomComplex(rng, n)
		y := randomComplex(rng, n)
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + y[i]
		}
		fm, err1 := FFT(mix)
		fx, err2 := FFT(x)
		fy, err3 := FFT(y)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range fm {
			if !complexClose(fm[i], a*fx[i]+fy[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	if _, err := NewMatrix(0, 4); err == nil {
		t.Error("NewMatrix(0,4) = nil error")
	}
	m, err := NewMatrix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(2, 1, 5+1i)
	if got := m.At(2, 1); got != 5+1i {
		t.Errorf("At = %v", got)
	}
	if _, err := FromReal([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("FromReal length mismatch = nil error")
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {5, 7}, {12, 3}, {1, 9}} {
		w, h := dims[0], dims[1]
		data := make([]float64, w*h)
		for i := range data {
			data[i] = rng.Float64() * 255
		}
		m, err := FromReal(data, w, h)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := FFT2D(m)
		if err != nil {
			t.Fatalf("FFT2D(%dx%d): %v", w, h, err)
		}
		back, err := IFFT2D(spec)
		if err != nil {
			t.Fatalf("IFFT2D: %v", err)
		}
		for i := range data {
			if math.Abs(real(back.Data[i])-data[i]) > 1e-8 || math.Abs(imag(back.Data[i])) > 1e-8 {
				t.Fatalf("%dx%d element %d: %v, want %v", w, h, i, back.Data[i], data[i])
			}
		}
	}
}

func TestFFT2DDCComponent(t *testing.T) {
	data := make([]float64, 16)
	var sum float64
	for i := range data {
		data[i] = float64(i)
		sum += data[i]
	}
	m, _ := FromReal(data, 4, 4)
	spec, err := FFT2D(m)
	if err != nil {
		t.Fatal(err)
	}
	if !complexClose(spec.At(0, 0), complex(sum, 0), 1e-9) {
		t.Errorf("DC = %v, want %v", spec.At(0, 0), sum)
	}
}

func TestFFT2DErrors(t *testing.T) {
	if _, err := FFT2D(nil); err == nil {
		t.Error("FFT2D(nil) = nil error")
	}
	if _, err := IFFT2D(&Matrix{}); err == nil {
		t.Error("IFFT2D(empty) = nil error")
	}
}

func TestShiftCentersDC(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 5}, {6, 3}} {
		w, h := dims[0], dims[1]
		m, _ := NewMatrix(w, h)
		m.Set(0, 0, 1) // DC bin
		s := Shift(m)
		cx, cy := w/2, h/2
		if w%2 == 1 {
			cx = w / 2
		}
		if got := s.At(cx, cy); got != 1 {
			t.Errorf("%dx%d: DC after shift at (%d,%d) = %v, want 1", w, h, cx, cy, got)
		}
		// Total mass preserved.
		var sum complex128
		for _, v := range s.Data {
			sum += v
		}
		if !complexClose(sum, 1, eps) {
			t.Errorf("%dx%d: shift lost mass: %v", w, h, sum)
		}
	}
}

func TestShiftIsPermutation(t *testing.T) {
	m, _ := NewMatrix(5, 4)
	for i := range m.Data {
		m.Data[i] = complex(float64(i), 0)
	}
	s := Shift(m)
	seen := make(map[float64]bool)
	for _, v := range s.Data {
		seen[real(v)] = true
	}
	if len(seen) != len(m.Data) {
		t.Errorf("shift is not a permutation: %d unique of %d", len(seen), len(m.Data))
	}
}

func TestCenteredSpectrumOfConstantImage(t *testing.T) {
	w, h := 16, 16
	data := make([]float64, w*h)
	for i := range data {
		data[i] = 200
	}
	spec, err := CenteredSpectrum(data, w, h)
	if err != nil {
		t.Fatal(err)
	}
	// A constant image has all its energy at DC: exactly one bright point
	// at the center, everything else ~0.
	cx, cy := w/2, h/2
	if !testutil.BitEqual(spec[cy*w+cx], 1) {
		t.Errorf("center = %v, want 1 (normalized max)", spec[cy*w+cx])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x == cx && y == cy {
				continue
			}
			if spec[y*w+x] > 1e-6 {
				t.Fatalf("off-center energy at (%d,%d): %v", x, y, spec[y*w+x])
			}
		}
	}
}

func TestCenteredSpectrumPeriodicSignalHasSidePeaks(t *testing.T) {
	// A strong periodic component produces symmetric side peaks away from
	// the center — the signature the steganalysis detector keys on.
	w, h := 32, 32
	data := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			data[y*w+x] = 128 + 100*math.Cos(2*math.Pi*8*float64(x)/float64(w))
		}
	}
	spec, err := CenteredSpectrum(data, w, h)
	if err != nil {
		t.Fatal(err)
	}
	cy := h / 2
	cx := w / 2
	left := spec[cy*w+(cx-8)]
	right := spec[cy*w+(cx+8)]
	if left < 0.8 || right < 0.8 {
		t.Errorf("side peaks = %v, %v, want bright (>0.8)", left, right)
	}
}

func TestCenteredSpectrumErrors(t *testing.T) {
	if _, err := CenteredSpectrum([]float64{1, 2}, 3, 3); err == nil {
		t.Error("CenteredSpectrum with bad length = nil error")
	}
}

func TestCenteredSpectrumAllZeros(t *testing.T) {
	spec, err := CenteredSpectrum(make([]float64, 16), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range spec {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("zero image spectrum has energy: %v", v)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomComplex(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTBluestein1009 times a prime length, which runs Bluestein.
func BenchmarkFFTBluestein1009(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomComplex(rng, 1009)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT2D256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 256*256)
	for i := range data {
		data[i] = rng.Float64()
	}
	m, _ := FromReal(data, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT2D(m); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: circular time shift leaves the magnitude spectrum unchanged
// (the shift theorem) — the basis for the centered spectrum being a
// position-independent signature.
func TestShiftTheoremMagnitudeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		n := int(seed%40+40)%40 + 4
		shift := int(seed%7+7)%7 + 1
		x := randomComplex(rng, n)
		shifted := make([]complex128, n)
		for i := range x {
			shifted[(i+shift)%n] = x[i]
		}
		fx, err1 := FFT(x)
		fs, err2 := FFT(shifted)
		if err1 != nil || err2 != nil {
			return false
		}
		for k := range fx {
			if math.Abs(cmplx.Abs(fx[k])-cmplx.Abs(fs[k])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the DFT of a real signal is Hermitian — X[k] = conj(X[n-k]).
func TestRealSignalHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		n := int(seed%50+50)%50 + 2
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64()*100, 0)
		}
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(fx[k]-cmplx.Conj(fx[n-k])) > 1e-8*float64(n) {
				return false
			}
		}
		return imag(fx[0]) < 1e-9 && imag(fx[0]) > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
