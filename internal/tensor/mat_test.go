package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row view does not alias storage")
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("writing through Row view not visible")
	}
}

func TestMatFromValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad backing length")
		}
	}()
	MatFrom(2, 2, make([]float64, 3))
}

func TestMatVec(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MatVec(dst, m, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v", dst)
	}
}

func TestMatTVec(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1}
	dst := make([]float64, 3)
	MatTVec(dst, m, x)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVec[%d] = %v want %v", i, dst[i], want[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	AddOuter(m, 2, []float64{1, 2}, []float64{3, 4})
	want := []float64{6, 8, 12, 16}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter data[%d] = %v want %v", i, m.Data[i], want[i])
		}
	}
}

func TestMatMulAgainstManual(t *testing.T) {
	a := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := MatFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMat(2, 2)
	MatMul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("MatMul data[%d] = %v want %v", i, dst.Data[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := Transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("Transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("Transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: (Aᵀ)x computed by MatTVec equals MatVec on the explicit
// transpose, for random small matrices.
func TestMatTVecMatchesTransposeProperty(t *testing.T) {
	f := func(data0 [6]float64, x0 [2]float64) bool {
		data, x := shrinkVec(data0[:]), shrinkVec(x0[:])
		m := MatFrom(2, 3, data)
		want := make([]float64, 3)
		MatVec(want, Transpose(m), x)
		got := make([]float64, 3)
		MatTVec(got, m, x)
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec is linear in x.
func TestMatVecLinearityProperty(t *testing.T) {
	f := func(data0 [6]float64, x0, y0 [3]float64) bool {
		data, x, y := shrinkVec(data0[:]), shrinkVec(x0[:]), shrinkVec(y0[:])
		m := MatFrom(2, 3, data)
		sum := make([]float64, 3)
		Add(sum, x, y)
		lhs := make([]float64, 2)
		MatVec(lhs, m, sum)
		mx := make([]float64, 2)
		MatVec(mx, m, x)
		my := make([]float64, 2)
		MatVec(my, m, y)
		for i := range lhs {
			if !almostEqual(lhs[i], mx[i]+my[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// batchVec is randVec with exact zeros, −0 and an infinity mixed in, so
// the zero-skip of MatTVec and AddOuter is visible: a skipped 0·Inf term
// is not a NaN, and a skipped term does not turn a −0 sum into +0.
func batchVec(rng *RNG, n int) []float64 {
	v := randVec(rng, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		}
	}
	if n > 2 {
		v[rng.Intn(n)] = math.Inf(1)
	}
	return v
}

// TestBatchedMatKernelsMatchPerVectorScalarLoops pins the batch-major
// MatVec, MatTVec and AddOuter to scalar loops over one vector at a
// time — for row { for sample { dot } } and its two transposes — at row,
// sample and column counts on both sides of every tile and unroll width.
func TestBatchedMatKernelsMatchPerVectorScalarLoops(t *testing.T) {
	rng := NewRNG(77)
	for _, rows := range []int{1, 3, 4, 5, 8, 13} {
		for _, cols := range []int{1, 5, 8, 9, 31, 67} {
			for _, n := range []int{1, 2, 3, 7, 8, 9, 17} {
				m := MatFrom(rows, cols, randVec(rng, rows*cols))
				x, g := randVec(rng, n*cols), batchVec(rng, n*rows)

				got := make([]float64, n*rows)
				MatVec(got, m, x)
				for i := 0; i < rows; i++ {
					for s := 0; s < n; s++ {
						if want := scalarDot(m.Row(i), x[s*cols:(s+1)*cols]); !sameBits(got[s*rows+i], want) {
							t.Fatalf("%dx%d n=%d: MatVec[%d][%d] = %v, scalar dot %v", rows, cols, n, s, i, got[s*rows+i], want)
						}
					}
				}

				gotT, wantT := make([]float64, n*cols), make([]float64, n*cols)
				MatTVec(gotT, m, g)
				for s := 0; s < n; s++ {
					for i := 0; i < rows; i++ {
						if gi := g[s*rows+i]; gi != 0 {
							for j := 0; j < cols; j++ {
								wantT[s*cols+j] += gi * m.At(i, j)
							}
						}
					}
				}

				gotO, wantO := MatFrom(rows, cols, Clone(m.Data)), MatFrom(rows, cols, Clone(m.Data))
				AddOuter(gotO, 0.5, g, x)
				for s := 0; s < n; s++ {
					for i := 0; i < rows; i++ {
						if gi := 0.5 * g[s*rows+i]; gi != 0 {
							for j := 0; j < cols; j++ {
								wantO.Data[i*cols+j] += gi * x[s*cols+j]
							}
						}
					}
				}
				for j := range wantT {
					if !sameBits(gotT[j], wantT[j]) {
						t.Fatalf("%dx%d n=%d: MatTVec[%d] = %v, per-sample loop %v", rows, cols, n, j, gotT[j], wantT[j])
					}
				}
				for j := range wantO.Data {
					if !sameBits(gotO.Data[j], wantO.Data[j]) {
						t.Fatalf("%dx%d n=%d: AddOuter[%d] = %v, per-sample loop %v", rows, cols, n, j, gotO.Data[j], wantO.Data[j])
					}
				}
			}
		}
	}
}
