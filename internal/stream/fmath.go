package stream

import (
	"math"
	"math/bits"
)

// The arrival generators' transcendental functions, ported from Go's
// math package (BSD-style license; math/log.go, math/sin.go,
// math/trig_reduce.go) with every product rounded by an explicit
// float64(...) before it is added. Go may fuse x*y + z into one rounding
// on arm64, riscv64, ppc64le and loong64, and math.Log and math.Sin are
// pure Go there, so the standard library's results, and with them every
// arrival trace, could differ by target. These ports compute on every
// target the bits amd64 computes: math.Log is assembly of the same steps
// there (for normal arguments; the assembly mishandles subnormals, which
// the generators never pass) and math.Sin the same Go code, never fused
// (TestUnfusedMatchesStdlib); make arch-check sees them because they are
// in this module.

// unfusedLog is math.Log.
func unfusedLog(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 3fe62e42 fee00000
		ln2Lo = 1.90821492927058770002e-10 // 3dea39ef 35793c76
		l1    = 6.666666666666735130e-01   // 3FE55555 55555593
		l2    = 3.999999999940941908e-01   // 3FD99999 9997FA04
		l3    = 2.857142874366239149e-01   // 3FD24924 94229359
		l4    = 2.222219843214978396e-01   // 3FCC71C5 1D8E78AF
		l5    = 1.818357216161805012e-01   // 3FC74664 96CB03DE
		l6    = 1.531383769920937332e-01   // 3FC39A09 D078C69F
		l7    = 1.479819860511658591e-01   // 3FC2F112 DF3E5244
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 = float64(f1 * 2)
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// unfusedSin is math.Sin.
func unfusedSin(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	switch {
	case x == 0 || math.IsNaN(x):
		return x
	case math.IsInf(x, 0):
		return math.NaN()
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	var j uint64
	var y, z float64
	if x >= 1<<29 {
		j, z = trigReduce(x)
	} else {
		j = uint64(float64(x * (4 / math.Pi))) // octant of x (rounded: riscv64 fuses it into the conversion)
		y = float64(j)
		if j&1 == 1 {
			j++
			y++
		}
		j &= 7
		z = ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C) // extended-precision reduction
	}
	if j > 3 {
		sign = !sign
		j -= 4
	}
	zz := z * z
	if j == 1 || j == 2 {
		q := cosCoef[0]
		for _, c := range cosCoef[1:] {
			q = float64(q*zz) + c
		}
		y = (1.0 - float64(0.5*zz)) + float64(zz*zz*q)
	} else {
		p := sinCoef[0]
		for _, c := range sinCoef[1:] {
			p = float64(p*zz) + c
		}
		y = z + float64(z*zz*p)
	}
	if sign {
		y = -y
	}
	return y
}

// sinCoef and cosCoef are the math package's minimax polynomials of sin
// and cos on [0, π/4], highest degree first.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// trigReduce is the math package's Payne-Hanek reduction of x ≥ 2^29:
// j is the octant of x, z its remainder in [0, π/4) (integer arithmetic
// but for the last product).
func trigReduce(x float64) (j uint64, z float64) {
	const pi4 = math.Pi / 4
	ix := math.Float64bits(x)
	exp := int(ix>>52&0x7FF) - 1023 - 52
	ix &^= 0x7FF << 52
	ix |= 1 << 52
	digit, bitshift := uint(exp+61)/64, uint(exp+61)%64
	z0 := (mPi4[digit] << bitshift) | (mPi4[digit+1] >> (64 - bitshift))
	z1 := (mPi4[digit+1] << bitshift) | (mPi4[digit+2] >> (64 - bitshift))
	z2 := (mPi4[digit+2] << bitshift) | (mPi4[digit+3] >> (64 - bitshift))
	z2hi, _ := bits.Mul64(z2, ix)
	z1hi, z1lo := bits.Mul64(z1, ix)
	z0lo := z0 * ix
	lo, c := bits.Add64(z1lo, z2hi, 0)
	hi, _ := bits.Add64(z0lo, z1hi, c)
	j = hi >> 61
	hi = hi<<3 | lo>>61
	lz := uint(bits.LeadingZeros64(hi))
	e := uint64(1023 - (lz + 1))
	hi = (hi << (lz + 1)) | (lo >> (64 - (lz + 1)))
	hi >>= 64 - 52
	hi |= e << 52
	z = math.Float64frombits(hi)
	if j&1 == 1 {
		j++
		j &= 7
		z--
	}
	return j, float64(z * pi4)
}

// mPi4 holds the binary digits of 4/π: 4/π = Σ mPi4[i]·2^(-64·i).
var mPi4 = [...]uint64{
	0x0000000000000001,
	0x45f306dc9c882a53,
	0xf84eafa3ea69bb81,
	0xb6c52b3278872083,
	0xfca2c757bd778ac3,
	0x6e48dc74849ba5c0,
	0x0c925dd413a32439,
	0xfc3bd63962534e7d,
	0xd1046bea5d768909,
	0xd338e04d68befc82,
	0x7323ac7306a673e9,
	0x3908bf177bf25076,
	0x3ff12fffbc0b301f,
	0xde5e2316b414da3e,
	0xda6cfd9e4f96136e,
	0x9e8c7ecd3cbfd45a,
	0xea4f758fd7cbe2f6,
	0x7a0e73ef14a525d4,
	0xd7f6bf623f1aba10,
	0xac06608df8f6d757,
}
