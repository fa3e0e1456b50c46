package cpu

// hasAVX2 is AVX2's check by CPUID and XGETBV (cpu_amd64.s).
func hasAVX2() bool

func init() { AVX2 = hasAVX2() }
