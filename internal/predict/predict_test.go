package predict

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLastValue(t *testing.T) {
	m := LastValue{}
	if got := m.Forecast(nil); got != 0 {
		t.Errorf("Forecast(nil) = %v, want 0", got)
	}
	if got := m.Forecast([]float64{1, 2, 3}); got != 3 {
		t.Errorf("Forecast() = %v, want 3", got)
	}
	if m.Name() == "" {
		t.Error("Name() empty")
	}
}

func TestEWMA(t *testing.T) {
	m := EWMA{Alpha: 0.5}
	if got := m.Forecast(nil); got != 0 {
		t.Errorf("Forecast(nil) = %v, want 0", got)
	}
	if got := m.Forecast([]float64{4}); got != 4 {
		t.Errorf("Forecast(single) = %v, want 4", got)
	}
	// s = 2; then 0.5*4 + 0.5*2 = 3; then 0.5*6 + 0.5*3 = 4.5.
	if got := m.Forecast([]float64{2, 4, 6}); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("Forecast() = %v, want 4.5", got)
	}
	// Constant series forecast the constant.
	if got := m.Forecast([]float64{7, 7, 7, 7}); !almostEqual(got, 7, 1e-12) {
		t.Errorf("Forecast(constant) = %v, want 7", got)
	}
	// Invalid alpha falls back gracefully rather than exploding.
	bad := EWMA{Alpha: 3}
	if got := bad.Forecast([]float64{1, 1}); math.IsNaN(got) {
		t.Error("Forecast with invalid alpha returned NaN")
	}
}

func TestFitARRecoversCoefficients(t *testing.T) {
	// Synthesise x_t = 2 + 0.6 x_{t-1} with tiny noise; AR(1) must
	// recover the generating process closely.
	// Noise must be large enough to spread the regressor away from the
	// process's fixed point, or the fit is ill-conditioned against the
	// intercept.
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 2000)
	series[0] = 5
	for i := 1; i < len(series); i++ {
		series[i] = 2 + 0.6*series[i-1] + rng.NormFloat64()*1.0
	}
	coeffs, intercept, err := FitAR(series, 1)
	if err != nil {
		t.Fatalf("FitAR: %v", err)
	}
	if !almostEqual(coeffs[0], 0.6, 0.05) {
		t.Errorf("AR coefficient = %v, want ~0.6", coeffs[0])
	}
	if !almostEqual(intercept, 2, 0.3) {
		t.Errorf("intercept = %v, want ~2", intercept)
	}
}

func TestFitARErrors(t *testing.T) {
	if _, _, err := FitAR([]float64{1, 2, 3}, 0); err == nil {
		t.Error("FitAR(order 0) succeeded")
	}
	if _, _, err := FitAR([]float64{1, 2}, 2); err == nil {
		t.Error("FitAR(too short) succeeded")
	}
}

func TestARForecast(t *testing.T) {
	m := AR{Order: 1}
	if m.Name() == "" {
		t.Error("Name() empty")
	}
	// Too little history → persistence fallback.
	if got := m.Forecast([]float64{5}); got != 5 {
		t.Errorf("short-history Forecast = %v, want 5 (fallback)", got)
	}
	// Deterministic linear growth is captured by AR(2) exactly (with
	// an intercept an AR(1) also fits it): x_t = x_{t-1} + 1.
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := (AR{Order: 2}).Forecast(series)
	if !almostEqual(got, 9, 0.1) {
		t.Errorf("Forecast(linear) = %v, want ~9", got)
	}
	// Negative predictions clamp to zero.
	falling := []float64{10, 8, 6, 4, 2, 0}
	if got := (AR{Order: 1}).Forecast(falling); got < 0 {
		t.Errorf("Forecast() = %v, want >= 0", got)
	}
	// Constant series stay constant despite the singular design matrix.
	constant := []float64{4, 4, 4, 4, 4, 4}
	if got := (AR{Order: 1}).Forecast(constant); !almostEqual(got, 4, 0.2) {
		t.Errorf("Forecast(constant) = %v, want ~4", got)
	}
}

func TestForecaster(t *testing.T) {
	fc, err := NewForecaster(LastValue{}, 0)
	if err != nil {
		t.Fatalf("NewForecaster: %v", err)
	}
	if got := fc.Forecast(); len(got) != 0 {
		t.Errorf("cold Forecast() = %v, want empty", got)
	}
	fc.Observe(map[int]int64{1: 5, 2: 3})
	fc.Observe(map[int]int64{1: 7}) // key 2 implicitly observed as 0
	got := fc.Forecast()
	if got[1] != 7 {
		t.Errorf("Forecast()[1] = %d, want 7", got[1])
	}
	if got[2] != 0 {
		t.Errorf("Forecast()[2] = %d, want 0 (gap learned)", got[2])
	}
	if _, err := NewForecaster(nil, 0); err == nil {
		t.Error("NewForecaster(nil) succeeded")
	}
}

func TestForecasterWindow(t *testing.T) {
	fc, err := NewForecaster(LastValue{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		fc.Observe(map[int]int64{1: int64(i)})
	}
	if got := fc.Forecast()[1]; got != 10 {
		t.Errorf("windowed Forecast = %d, want 10", got)
	}
	// The window must actually bound history length.
	if n := len(fc.hist[1]); n != 2 {
		t.Errorf("history length %d, want 2", n)
	}
}

func TestForecasterSparseRounding(t *testing.T) {
	// A video seen once long ago should still be forecast (ceil-biased
	// rounding), which matters for sparse per-(hotspot, video) series.
	fc, err := NewForecaster(EWMA{Alpha: 0.3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc.Observe(map[int]int64{1: 1})
	fc.Observe(map[int]int64{1: 1})
	fc.Observe(map[int]int64{})
	if got := fc.Forecast()[1]; got < 1 {
		t.Errorf("sparse Forecast = %d, want >= 1", got)
	}
}

func TestSeasonal(t *testing.T) {
	m := Seasonal{Period: 3}
	if m.Name() == "" {
		t.Error("Name() empty")
	}
	// Too little history falls back to persistence.
	if got := m.Forecast([]float64{5, 6}); got != 6 {
		t.Errorf("short-history Forecast = %v, want 6", got)
	}
	// Exactly one period: predicts the value one period back.
	if got := m.Forecast([]float64{1, 2, 3}); got != 1 {
		t.Errorf("Forecast = %v, want 1", got)
	}
	if got := m.Forecast([]float64{1, 2, 3, 4, 5}); got != 3 {
		t.Errorf("Forecast = %v, want 3", got)
	}
	// A perfectly periodic series is predicted exactly.
	series := []float64{10, 2, 7, 10, 2, 7, 10, 2}
	if got := (Seasonal{Period: 3}).Forecast(series); got != 7 {
		t.Errorf("periodic Forecast = %v, want 7", got)
	}
	// Invalid period falls back gracefully.
	if got := (Seasonal{}).Forecast([]float64{4, 9}); got != 9 {
		t.Errorf("zero-period Forecast = %v, want 9 (persistence)", got)
	}
}
