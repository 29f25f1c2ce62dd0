/**
 * @file
 * AVX2 instance of the render kernel table, compiled on every x86 build
 * WITHOUT -mavx2: the kernel bodies (and the F8 backend they use) sit
 * inside a target("avx2") pragma region, so only these functions get
 * AVX2 codegen and the binary stays runnable on SSE2-only machines —
 * the dispatch layer (math/simd_backend.hpp) only selects this table
 * when CPUID reports AVX2.
 *
 * Vague-linkage discipline: every header whose inline/template code a
 * baseline TU might also instantiate (render structs, <algorithm>, the
 * std headers behind them) is included BEFORE the pragma region, so the
 * region contains only this TU's private F8 backend (its qualified
 * names are unique to AVX2-forced TUs) and the anonymous-namespace
 * kernel bodies. Nothing with AVX2 codegen can be comdat-merged into a
 * baseline caller.
 */

#include "render/simd_kernels.hpp"

#if !defined(CLM_DISABLE_SIMD) \
    && (defined(__x86_64__) || defined(__i386__)) \
    && (defined(__GNUC__) || defined(__clang__))

// Pre-include (outside the target region) everything the kernels touch.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "render/arena.hpp"
#include "render/binning.hpp"

#define CLM_F8_FORCE_AVX2 1

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

#include "math/simd.hpp"

namespace clm {

namespace {
#include "render/simd_kernels_impl.inl"
} // namespace

} // namespace clm

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

namespace clm {

const RenderKernels *
renderKernelsAvx2()
{
    static const RenderKernels table{SimdBackend::kAvx2, "avx2",
                                     &kernelCompositeTile,
                                     &kernelBackwardTile,
                                     &kernelCullPrefilter,
                                     &kernelSsimStatsRow,
                                     &kernelSsimScatterRow};
    return &table;
}

} // namespace clm

#else

namespace clm {

const RenderKernels *
renderKernelsAvx2()
{
    return nullptr;
}

} // namespace clm

#endif
