// Package predict implements the per-video demand predictors the paper
// assumes as an input ("the popularity distribution of the files
// changes slowly and can be learned through some popularity prediction
// algorithm (like the regression model ARIMA)"): an exponentially
// weighted moving average, an autoregressive AR(p) model fitted by
// least squares, and a last-value baseline. The simulator can feed
// RBCAer predicted rather than oracle demand; an ablation bench
// measures the difference.
package predict

import (
	"fmt"
	"math"
)

// Method forecasts the next value of a scalar series.
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Forecast predicts the next value from the history (oldest
	// first). Implementations must handle short histories gracefully;
	// an empty history forecasts 0.
	Forecast(history []float64) float64
}

// LastValue predicts the most recent observation (a persistence
// baseline).
type LastValue struct{}

var _ Method = LastValue{}

// Name implements Method.
func (LastValue) Name() string { return "last-value" }

// Forecast implements Method.
func (LastValue) Forecast(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	return history[len(history)-1]
}

// EWMA predicts with an exponentially weighted moving average.
type EWMA struct {
	// Alpha is the smoothing factor in (0, 1]; larger tracks recent
	// values more closely.
	Alpha float64
}

var _ Method = EWMA{}

// Name implements Method.
func (e EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.Alpha) }

// Forecast implements Method.
func (e EWMA) Forecast(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	alpha := e.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	s := history[0]
	for _, v := range history[1:] {
		s = alpha*v + (1-alpha)*s
	}
	return s
}

// Seasonal is the seasonal-naive method: it predicts the value observed
// one period ago (e.g. the same hour yesterday with Period 24), the
// natural forecaster for diurnal video demand. With less than one full
// period of history it falls back to persistence.
type Seasonal struct {
	// Period is the season length in slots (e.g. 24 for hourly slots).
	Period int
}

var _ Method = Seasonal{}

// Name implements Method.
func (s Seasonal) Name() string { return fmt.Sprintf("seasonal(%d)", s.Period) }

// Forecast implements Method.
func (s Seasonal) Forecast(history []float64) float64 {
	if s.Period < 1 || len(history) < s.Period {
		return LastValue{}.Forecast(history)
	}
	return history[len(history)-s.Period]
}

// AR is an autoregressive model of the given order, refitted by
// ordinary least squares on every call. With Order p it predicts
// x_t = c + a_1 x_{t-1} + ... + a_p x_{t-p}. It is the paper's
// ARIMA-family stand-in (an ARIMA(p,0,0)).
type AR struct {
	Order int
}

var _ Method = AR{}

// Name implements Method.
func (a AR) Name() string { return fmt.Sprintf("ar(%d)", a.Order) }

// Forecast implements Method.
func (a AR) Forecast(history []float64) float64 {
	p := a.Order
	if p < 1 {
		p = 1
	}
	if len(history) < p+2 {
		// Too little data to fit; fall back to persistence.
		return LastValue{}.Forecast(history)
	}
	coeffs, intercept, err := FitAR(history, p)
	if err != nil {
		return LastValue{}.Forecast(history)
	}
	pred := intercept
	for k := 0; k < p; k++ {
		pred += coeffs[k] * history[len(history)-1-k]
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// FitAR fits an AR(p) model with intercept to the series by ordinary
// least squares, returning the lag coefficients (coeffs[k] multiplies
// x_{t-1-k}) and the intercept. It requires len(series) >= p+2.
func FitAR(series []float64, p int) (coeffs []float64, intercept float64, err error) {
	if p < 1 {
		return nil, 0, fmt.Errorf("predict: non-positive AR order %d", p)
	}
	n := len(series) - p
	if n < 2 {
		return nil, 0, fmt.Errorf("predict: series of length %d too short for AR(%d)", len(series), p)
	}
	// Design matrix rows: [1, x_{t-1}, ..., x_{t-p}] for t = p..len-1.
	dim := p + 1
	// Normal equations: (X'X) beta = X'y.
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim)
	}
	xty := make([]float64, dim)
	row := make([]float64, dim)
	for t := p; t < len(series); t++ {
		row[0] = 1
		for k := 0; k < p; k++ {
			row[k+1] = series[t-1-k]
		}
		y := series[t]
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}
	beta, err := solveGaussian(xtx, xty)
	if err != nil {
		return nil, 0, err
	}
	return beta[1:], beta[0], nil
}

// solveGaussian solves Ax = b with partial pivoting, adding a small
// ridge term when the system is singular (constant series).
func solveGaussian(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][i] += 1e-9 // ridge for numerical stability
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("predict: singular system")
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x, nil
}

// Forecaster tracks per-key demand histories and forecasts the next
// slot's demand for every key seen so far.
type Forecaster struct {
	method Method
	window int
	hist   map[int][]float64
}

// NewForecaster returns a forecaster using the method, keeping at most
// window observations per key (window <= 0 means unbounded).
func NewForecaster(m Method, window int) (*Forecaster, error) {
	if m == nil {
		return nil, fmt.Errorf("predict: nil method")
	}
	return &Forecaster{method: m, window: window, hist: make(map[int][]float64)}, nil
}

// Observe appends one slot's demand counts. Keys absent from demand are
// recorded as zero so gaps are learned.
func (f *Forecaster) Observe(demand map[int]int64) {
	for k := range f.hist {
		if _, ok := demand[k]; !ok {
			f.hist[k] = appendWindow(f.hist[k], 0, f.window)
		}
	}
	for k, v := range demand {
		f.hist[k] = appendWindow(f.hist[k], float64(v), f.window)
	}
}

func appendWindow(s []float64, v float64, window int) []float64 {
	s = append(s, v)
	if window > 0 && len(s) > window {
		s = s[len(s)-window:]
	}
	return s
}

// Forecast predicts the next slot's demand per key, rounded up from
// 0.25 (per-key demand series are sparse — a video requested once in a
// while would otherwise always round to zero and never be prefetched).
// Keys never observed are absent.
func (f *Forecaster) Forecast() map[int]int64 {
	out := make(map[int]int64, len(f.hist))
	for k, h := range f.hist {
		v := f.method.Forecast(h)
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		out[k] = int64(math.Ceil(v - 0.25))
	}
	return out
}
