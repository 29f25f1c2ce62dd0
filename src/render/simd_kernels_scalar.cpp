/**
 * @file
 * Scalar instance of the render kernel table — compiled into every
 * build (it is the dispatch fallback, and the only table of
 * -DCLM_DISABLE_SIMD=ON builds). Runs the same F8 op sequence as the
 * vector backends lane by lane, so its outputs are bitwise identical
 * to theirs.
 */

#include "render/simd_kernels.hpp"

#include "render/arena.hpp"
#include "render/binning.hpp"

#define CLM_F8_FORCE_SCALAR 1
#include "math/simd.hpp"

namespace clm {

namespace {
#include "render/simd_kernels_impl.inl"
} // namespace

const RenderKernels *
renderKernelsScalar()
{
    static const RenderKernels table{SimdBackend::kScalar, "scalar",
                                     &kernelCompositeTile,
                                     &kernelBackwardTile,
                                     &kernelCullPrefilter,
                                     &kernelSsimStatsRow,
                                     &kernelSsimScatterRow};
    return &table;
}

} // namespace clm
