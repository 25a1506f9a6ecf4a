// Baseline build of the kernel core, and the once-per-process choice of
// the build every kernel wrapper runs.
#include "kernel_core.inc"

namespace qbarren::exec::core {

#if defined(QBARREN_EXEC_AVX2_CORE)
// Defined in kernel_core_avx2.cpp (the same core built with -mavx2).
const KernelTable& avx2_table() noexcept;
#endif

const KernelTable& scalar_kernels() noexcept { return kTable; }

const KernelTable* avx2_kernels() noexcept {
#if defined(QBARREN_EXEC_AVX2_CORE)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (supported) return &avx2_table();
#endif
  return nullptr;
}

const KernelTable& active_kernels() noexcept {
  static const KernelTable& table = [&]() -> const KernelTable& {
    const KernelTable* avx2 = avx2_kernels();
    return avx2 != nullptr ? *avx2 : scalar_kernels();
  }();
  return table;
}

}  // namespace qbarren::exec::core
