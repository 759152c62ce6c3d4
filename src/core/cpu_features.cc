#include "core/cpu_features.h"

namespace fedda::core {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults CPUID once and caches internally; it is
  // also async-signal-safe after the first call.
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace fedda::core
