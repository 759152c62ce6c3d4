#ifndef FEDDA_CORE_CPU_FEATURES_H_
#define FEDDA_CORE_CPU_FEATURES_H_

namespace fedda::core {

/// Runtime CPU capability probes for the kernel dispatcher
/// (src/tensor/kernels/). Each probe is evaluated once per process; the
/// answers never change while the process runs, so callers may cache them
/// freely. On architectures where a feature cannot exist the probe is a
/// compile-time false — no CPUID is ever issued.

/// x86-64 AVX2 (256-bit integer + float SIMD). False on non-x86 builds.
bool CpuHasAvx2();

}  // namespace fedda::core

#endif  // FEDDA_CORE_CPU_FEATURES_H_
