// AVX2 build of the kernel core: the same source as kernel_core.cpp,
// compiled with -mavx2 and without FMA (see src/exec/CMakeLists.txt). Only
// reached through core::avx2_kernels(), after a CPUID check.
#include "kernel_core.inc"

namespace qbarren::exec::core {

const KernelTable& avx2_table() noexcept { return kTable; }

}  // namespace qbarren::exec::core
