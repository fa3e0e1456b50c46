package cpu

// hasAVX2 and hasAVX512 are the checks by CPUID and XGETBV (cpu_amd64.s).
func hasAVX2() bool
func hasAVX512() (subset, fp16 bool)

func init() {
	AVX2 = hasAVX2()
	AVX512, AVX512FP16 = hasAVX512()
}
