package tensor

import "fmt"

// Mat is a dense row-major matrix backed by a contiguous float64 slice.
// The backing slice may alias a region of a larger flat parameter vector,
// which is how network layers view their weights without copies.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMat with negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFrom wraps data as a Rows×Cols matrix without copying. It panics if
// len(data) != rows*cols.
func MatFrom(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatFrom backing length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a sub-slice view (no copy).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// batchOf returns how many vectors of length dim are stored back to back
// in v. The mat-vec kernels below are batch-major: every vector operand
// holds n vectors contiguously, and n = 1 is the plain operation.
func batchOf(op string, v []float64, dim int) int {
	n := 0
	if dim > 0 {
		n = len(v) / dim
	}
	if len(v) != n*dim {
		lenPanic(op, len(v), n*dim)
	}
	return n
}

// MatVec computes dst[s] = m * x[s] for n vectors stored back to back:
// x holds n Cols-length inputs, dst receives n Rows-length outputs. dst
// must not alias x.
//
// Every output is its own left-to-right dot product from +0 — the bits of
// Dot(m.Row(i), x[s]) — whatever tile computed it. Four rows at a time
// meet eight samples in the dot4x8AVX2 register tile (eight independent
// accumulator vectors, lanes are rows), then two samples (Dot4x2) and
// one (Dot4); rows beyond a multiple of four take Dot. The weight rows
// are streamed once per eight samples instead of once per sample.
//
//fda:noalloc
func MatVec(dst []float64, m *Mat, x []float64) {
	rows, cols := m.Rows, m.Cols
	n := batchOf("MatVec", dst, rows)
	if len(x) != n*cols {
		lenPanic("MatVec", len(x), n*cols)
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		w := m.Data[i*cols : (i+4)*cols]
		w0, w1, w2, w3 := w[:cols], w[cols:2*cols], w[2*cols:3*cols], w[3*cols:]
		s := 0
		if useAVX2 && cols >= simdMinLen {
			for ; s+8 <= n; s += 8 {
				_ = dst[(s+7)*rows+i+3] // the assembly stores unchecked
				dot4x8AVX2(dst[s*rows+i:], rows, w, x[s*cols:(s+8)*cols], cols)
			}
		}
		for ; s+2 <= n; s += 2 {
			da, db := dst[s*rows+i:s*rows+i+4], dst[(s+1)*rows+i:(s+1)*rows+i+4]
			da[0], da[1], da[2], da[3], db[0], db[1], db[2], db[3] = Dot4x2(
				x[s*cols:(s+1)*cols], x[(s+1)*cols:(s+2)*cols], w0, w1, w2, w3)
		}
		if s < n {
			d := dst[s*rows+i : s*rows+i+4]
			d[0], d[1], d[2], d[3] = Dot4(x[s*cols:(s+1)*cols], w0, w1, w2, w3)
		}
	}
	for ; i < rows; i++ {
		for s := 0; s < n; s++ {
			dst[s*rows+i] = dotUnrolled(m.Row(i), x[s*cols:(s+1)*cols])
		}
	}
}

// axpyRows computes y += Σ_j (alpha·coef[j·stride])·rows[j] for j < n,
// ascending, where rows holds len(y)-length vectors back to back. Terms
// whose coefficient is zero are skipped, the rest chain onto y in order,
// four per sweep of y (AXPY4) — bit-identical to one AXPY per non-zero
// term, with a quarter of the traffic on y.
//
//fda:noalloc
func axpyRows(y []float64, alpha float64, coef []float64, stride, n int, rows []float64) {
	d := len(y)
	var c [4]float64
	var at [4]int
	k := 0
	for j := 0; j < n; j++ {
		cj := alpha * coef[j*stride]
		if cj == 0 {
			continue
		}
		c[k], at[k] = cj, j*d
		if k++; k == 4 {
			AXPY4(c[0], c[1], c[2], c[3],
				rows[at[0]:at[0]+d], rows[at[1]:at[1]+d], rows[at[2]:at[2]+d], rows[at[3]:at[3]+d], y)
			k = 0
		}
	}
	for q := 0; q < k; q++ {
		axpyUnrolled(c[q], rows[at[q]:at[q]+d], y)
	}
}

// MatTVec computes dst[s] = mᵀ * x[s] for n vectors stored back to back:
// x holds n Rows-length inputs, dst receives n Cols-length outputs. Each
// output accumulates x[s][i]·row i from +0 in ascending i, skipping
// zero x[s][i]. dst must not alias x.
//
//fda:noalloc
func MatTVec(dst []float64, m *Mat, x []float64) {
	n := batchOf("MatTVec", dst, m.Cols)
	if len(x) != n*m.Rows {
		lenPanic("MatTVec", len(x), n*m.Rows)
	}
	Zero(dst)
	for s := 0; s < n; s++ {
		axpyRows(dst[s*m.Cols:(s+1)*m.Cols], 1, x[s*m.Rows:(s+1)*m.Rows], 1, m.Rows, m.Data)
	}
}

// AddOuter accumulates m += alpha * Σ_s a[s] b[s]ᵀ over n vector pairs
// stored back to back (a holds n Rows-length, b n Cols-length vectors).
// This is the weight-gradient kernel for dense layers: each row of m is
// swept once per four samples, and every element receives its samples'
// terms in sample order, skipping those whose alpha·a[s][i] is zero —
// the bits of n successive single-pair calls.
//
//fda:noalloc
func AddOuter(m *Mat, alpha float64, a, b []float64) {
	n := batchOf("AddOuter", a, m.Rows)
	if len(b) != n*m.Cols {
		lenPanic("AddOuter", len(b), n*m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		axpyRows(m.Row(i), alpha, a[i:], m.Rows, n, b)
	}
}

// matMulTileJ is the column-tile width of the blocked MatMul: 256
// float64 columns keep one tile row of b (2 kB) resident in L1 while it
// is reused across all rows of a.
const matMulTileJ = 256

// MatMul computes dst = a * b with a column-blocked i-k-j loop nest. dst
// must be preallocated with a.Rows × b.Cols and must not alias a or b.
//
// Blocking changes only the traversal of independent output elements;
// for every dst element the reduction over k still runs in ascending k
// order, so the result is bit-identical to the naive triple loop.
func MatMul(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul dimension mismatch")
	}
	Zero(dst.Data)
	for j0 := 0; j0 < b.Cols; j0 += matMulTileJ {
		j1 := j0 + matMulTileJ
		if j1 > b.Cols {
			j1 = b.Cols
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			drow := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j1]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				axpyUnrolled(av, b.Data[k*b.Cols+j0:k*b.Cols+j1], drow)
			}
		}
	}
}

// Transpose returns a newly allocated transpose of m.
func Transpose(m *Mat) *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}
