package tensor

import "fmt"

// MatMul returns a·b for a of shape [m,k] and b of shape [k,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k := dims2(a, "MatMul a")
	k2, n := dims2(b, "MatMul b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	out := New(m, n)
	MatMulInto(out, a, b, false)
	return out
}

// MatMulInto computes dst = a·b, or dst += a·b when accumulate is true.
// dst must have shape [m,n].
func MatMulInto(dst, a, b *Tensor, accumulate bool) {
	m, k := dims2(a, "MatMul a")
	k2, n := dims2(b, "MatMul b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	dm, dn := dims2(dst, "MatMul dst")
	if dm != m || dn != n {
		panic(fmt.Sprintf("tensor: MatMul dst shape [%d,%d], want [%d,%d]", dm, dn, m, n))
	}
	ad, bd, od := a.Data, b.Data, dst.Data
	ParallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := od[i*n : (i+1)*n]
			if !accumulate {
				for j := range orow {
					orow[j] = 0
				}
			}
			arow := ad[i*k : (i+1)*k]
			for l, av := range arow {
				if av == 0 {
					continue
				}
				brow := bd[l*n : (l+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// MatMulABT returns a·bᵀ for a of shape [m,k] and b of shape [n,k].
func MatMulABT(a, b *Tensor) *Tensor {
	m, k := dims2(a, "MatMulABT a")
	n, k2 := dims2(b, "MatMulABT b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", k, k2))
	}
	out := New(m, n)
	MatMulABTInto(out, a, b, false)
	return out
}

// MatMulABTInto computes dst = a·bᵀ, or dst += a·bᵀ when accumulate is true.
func MatMulABTInto(dst, a, b *Tensor, accumulate bool) {
	m, k := dims2(a, "MatMulABT a")
	n, k2 := dims2(b, "MatMulABT b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", k, k2))
	}
	dm, dn := dims2(dst, "MatMulABT dst")
	if dm != m || dn != n {
		panic(fmt.Sprintf("tensor: MatMulABT dst shape [%d,%d], want [%d,%d]", dm, dn, m, n))
	}
	ad, bd, od := a.Data, b.Data, dst.Data
	ParallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for l, av := range arow {
					s += av * brow[l]
				}
				if accumulate {
					od[i*n+j] += s
				} else {
					od[i*n+j] = s
				}
			}
		}
	})
}

// MatMulATB returns aᵀ·b for a of shape [k,m] and b of shape [k,n].
func MatMulATB(a, b *Tensor) *Tensor {
	k, m := dims2(a, "MatMulATB a")
	k2, n := dims2(b, "MatMulATB b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATB inner dims %d vs %d", k, k2))
	}
	out := New(m, n)
	MatMulATBInto(out, a, b, false)
	return out
}

// MatMulATBInto computes dst = aᵀ·b, or dst += aᵀ·b when accumulate is true.
func MatMulATBInto(dst, a, b *Tensor, accumulate bool) {
	k, m := dims2(a, "MatMulATB a")
	k2, n := dims2(b, "MatMulATB b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATB inner dims %d vs %d", k, k2))
	}
	dm, dn := dims2(dst, "MatMulATB dst")
	if dm != m || dn != n {
		panic(fmt.Sprintf("tensor: MatMulATB dst shape [%d,%d], want [%d,%d]", dm, dn, m, n))
	}
	ad, bd, od := a.Data, b.Data, dst.Data
	ParallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := od[i*n : (i+1)*n]
			if !accumulate {
				for j := range orow {
					orow[j] = 0
				}
			}
			for l := 0; l < k; l++ {
				av := ad[l*m+i]
				if av == 0 {
					continue
				}
				brow := bd[l*n : (l+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

func dims2(t *Tensor, what string) (int, int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s must be 2-D, got shape %v", what, t.shape))
	}
	return t.shape[0], t.shape[1]
}
