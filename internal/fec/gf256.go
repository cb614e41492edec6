package fec

import "crypto/subtle"

// GF(256) arithmetic over the AES-adjacent primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d). Log/exp tables (768 bytes) give the
// scalar reference gfMul/gfInv/gfDiv; from them init builds the full
// 256×256 product table (64 KiB) that symbol coding runs on.
//
// Coding is bound by the work done per byte and by how often each symbol
// is read, not by memory bandwidth. Looping gfMul's log/exp form (two
// lookups, an add and a zero branch per byte) costs ~1.2 ns/byte on a
// 1 KiB symbol. mulAddRow instead loads the coefficient's 256-byte
// product row once, then does one lookup and one XOR per byte (~0.55
// ns/byte); unit coefficients, that is every XOR-coder step and every
// unit Cauchy entry, take the word-wide crypto/subtle.XORBytes (~0.04
// ns/byte). mulAddCols reads each input symbol once per four outputs;
// on BenchmarkDecode64K that took 248 to 187 µs against one mulAddRow
// pass per output. Medians on a 2-vCPU x86-64 host
// (BenchmarkMulAddRow1K). There is one portable code path: no assembly
// and no per-architecture kernels.

const gfPoly = 0x11d

var (
	gfExp [512]byte // doubled so mul can skip the mod-255 reduction
	gfLog [256]byte
	// gfMulTable[c][v] = c·v. Row c is an array, so indexing it with a
	// byte needs no bounds check.
	gfMulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range gfMulTable {
		for v := range gfMulTable[c] {
			gfMulTable[c][v] = gfMul(byte(c), byte(v))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfDiv divides a by a non-zero b.
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// mulAddRow accumulates dst ^= c * src over len(src) bytes; dst must be at
// least as long. c == 0 is a no-op and c == 1 a word-wide XOR.
func mulAddRow(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	row := &gfMulTable[c]
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] ^= row[v]
	}
}

// mulAddCols accumulates dsts[t] ^= cs[t] * src over len(src) bytes for
// every t. Each group of four outputs shares one pass over src; the rest
// take a mulAddRow pass each, since a fused pass over two outputs measured
// slower than two single passes.
func mulAddCols(dsts [][]byte, src, cs []byte) {
	n := len(src)
	for ; len(dsts) >= 4; dsts, cs = dsts[4:], cs[4:] {
		r0, r1, r2, r3 := &gfMulTable[cs[0]], &gfMulTable[cs[1]], &gfMulTable[cs[2]], &gfMulTable[cs[3]]
		d0, d1, d2, d3 := dsts[0][:n], dsts[1][:n], dsts[2][:n], dsts[3][:n]
		for i, v := range src {
			d0[i] ^= r0[v]
			d1[i] ^= r1[v]
			d2[i] ^= r2[v]
			d3[i] ^= r3[v]
		}
	}
	for t, d := range dsts {
		mulAddRow(d, src, cs[t])
	}
}

// mulRow scales dst in place: dst = c * dst.
func mulRow(dst []byte, c byte) {
	row := &gfMulTable[c]
	for i, v := range dst {
		dst[i] = row[v]
	}
}
