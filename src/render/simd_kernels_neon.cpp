/**
 * @file
 * NEON instance of the render kernel table (AArch64, where NEON is
 * baseline — no target pragma needed). Absent (nullptr) elsewhere and
 * in -DCLM_DISABLE_SIMD=ON builds.
 */

#include "render/simd_kernels.hpp"

#if !defined(CLM_DISABLE_SIMD) && defined(__aarch64__) \
    && defined(__ARM_NEON)

#include "render/arena.hpp"
#include "render/binning.hpp"

#define CLM_F8_FORCE_NEON 1
#include "math/simd.hpp"

namespace clm {

namespace {
#include "render/simd_kernels_impl.inl"
} // namespace

const RenderKernels *
renderKernelsNeon()
{
    static const RenderKernels table{SimdBackend::kNeon, "neon",
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
renderKernelsNeon()
{
    return nullptr;
}

} // namespace clm

#endif
