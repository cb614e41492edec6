package fec

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMulAddRow is the scalar reference the table kernel must match.
func refMulAddRow(dst, src []byte, c byte) {
	for i, v := range src {
		dst[i] ^= gfMul(c, v)
	}
}

// firstDiff returns the first index where two equal-length slices
// differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestMulAddRowMatchesReference checks the kernel against gfMul for every
// coefficient over every byte value, then over short, odd and 1 KiB
// lengths at unaligned starts, with guard bytes past the end of src that
// must stay untouched.
func TestMulAddRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	every := make([]byte, 256)
	for v := range every {
		every[v] = byte(v)
	}
	lengths := []int{1024}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	const guard = 8
	for ci := 0; ci < 256; ci++ {
		c := byte(ci)
		dst := make([]byte, 256)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		refMulAddRow(want, every, c)
		mulAddRow(dst, every, c)
		if i := firstDiff(dst, want); i >= 0 {
			t.Fatalf("c=%d v=%d: got %#x, want %#x", c, i, dst[i], want[i])
		}
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				srcBuf := make([]byte, off+n)
				dstBuf := make([]byte, off+n+guard)
				rng.Read(srcBuf)
				rng.Read(dstBuf)
				wantBuf := append([]byte(nil), dstBuf...)
				// Start dst and src at different offsets so neither
				// alignment matches the other.
				src := srcBuf[off:]
				dst := dstBuf[(off+3)%8:]
				want := wantBuf[(off+3)%8:]
				refMulAddRow(want, src, c)
				mulAddRow(dst, src, c)
				if i := firstDiff(dstBuf, wantBuf); i >= 0 {
					t.Fatalf("c=%d len=%d off=%d: dst byte %d is %#x, want %#x", c, n, off, i, dstBuf[i], wantBuf[i])
				}
			}
		}
	}
}

// TestMulAddColsMatchesReference checks the fused multi-output kernel
// against the reference for 0–9 outputs (zero to two four-output passes
// plus zero to three single ones), every coefficient in every output position over
// every byte value, and short, odd and 1 KiB unaligned lengths.
func TestMulAddColsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	every := make([]byte, 256)
	for v := range every {
		every[v] = byte(v)
	}
	check := func(m int, src, cs []byte, off int) {
		t.Helper()
		dsts := make([][]byte, m)
		want := make([][]byte, m)
		for k := range dsts {
			buf := make([]byte, off+len(src)+8)
			rng.Read(buf)
			want[k] = append([]byte(nil), buf...)
			refMulAddRow(want[k][off:], src, cs[k])
			dsts[k] = buf[off:]
		}
		mulAddCols(dsts, src, cs)
		for k := range dsts {
			// dsts[k] runs 8 guard bytes past src; they must not change.
			if i := firstDiff(dsts[k], want[k][off:]); i >= 0 {
				t.Fatalf("m=%d out=%d c=%d len=%d off=%d: byte %d is %#x, want %#x",
					m, k, cs[k], len(src), off, i, dsts[k][i], want[k][off+i])
			}
		}
	}
	for m := 0; m <= 9; m++ {
		cs := make([]byte, m)
		for ci := 0; ci < 256; ci++ {
			for k := range cs {
				cs[k] = byte(ci + 97*k)
			}
			check(m, every, cs, 0)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 1024} {
			for off := 0; off < 8; off++ {
				src := make([]byte, off+n)
				rng.Read(src)
				rng.Read(cs)
				check(m, src[off:], cs, (off+5)%8)
			}
		}
	}
}

// TestMulRowMatchesReference checks in-place row scaling for every
// coefficient and byte value.
func TestMulRowMatchesReference(t *testing.T) {
	for ci := 0; ci < 256; ci++ {
		row := make([]byte, 256)
		for v := range row {
			row[v] = byte(v)
		}
		mulRow(row, byte(ci))
		for v, got := range row {
			if want := gfMul(byte(ci), byte(v)); got != want {
				t.Fatalf("mulRow c=%d v=%d: got %d, want %d", ci, v, got, want)
			}
		}
	}
}

// BenchmarkMulAddRow1K is the coding kernel on one 1 KiB symbol (the
// coopcast default size). c=1 takes the XOR path; the others the
// product-table path.
func BenchmarkMulAddRow1K(b *testing.B) {
	src := randPayload(1024, 1)
	dst := make([]byte, 1024)
	for _, c := range []byte{1, 2, 0x8e, 255} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mulAddRow(dst, src, c)
			}
		})
	}
}

// BenchmarkMulAddCols1K is the fused kernel: one 1 KiB input symbol into
// m outputs, the inner step of encoding and decoding with R = m.
func BenchmarkMulAddCols1K(b *testing.B) {
	src := randPayload(1024, 1)
	for _, m := range []int{2, 4} {
		dsts := make([][]byte, m)
		cs := make([]byte, m)
		for k := range dsts {
			dsts[k] = make([]byte, 1024)
			cs[k] = byte(0x8e + k)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(int64(m * len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mulAddCols(dsts, src, cs)
			}
		})
	}
}
