/**
 * @file
 * Training loss: (1 - lambda) * L1 + lambda * D-SSIM, the reference 3DGS
 * objective, with an exact analytic backward pass into dL/d(rendered).
 *
 * The SSIM statistics (box window, clamped borders) come from summed-
 * area tables (SATs), so the loss is O(w*h) forward and backward instead
 * of the brute-force O(w*h*window^2): five SAT fields per channel
 * (x, y, x^2, y^2, x*y) give every center's window statistics in O(1),
 * and the backward scatter collapses to box sums over a SAT of three
 * per-center coefficient fields per channel.
 *
 * No SAT is ever stored whole. The image is cut into column strips
 * (about one per pool thread, at least 32 columns wide), and each strip
 * streams its SAT rows top to bottom through a ring of 2r+2 rows (r =
 * window / 2) of planar fields, so the working set stays in cache and
 * the row kernels of the runtime-dispatched RenderKernels table
 * (render/simd_kernels.hpp) evaluate four centers per op. A strip's
 * row-prefix fold resumes from a per-row carry — the value the full-row
 * fold holds at the strip's first SAT column — which a row-parallel
 * pass computes first. Every SAT entry, statistic, coefficient and
 * output value is therefore the same IEEE double expression, evaluated
 * in the same order, as in one full-image table: the strip and thread
 * counts and the kernel table never change a bit of the gradient.
 *
 * One call runs four pool passes: row carries of the statistics, the
 * statistics strips (SSIM per center, and the coefficient image when
 * gradients are wanted), one row-chunked pass that sums the SSIM in a
 * fixed order and folds the coefficient carries, and the scatter
 * strips. The SSIM sum reduces per chunk of rows (min(h, 2 * pool
 * threads) chunks) in row-major order with the partials summed in chunk
 * order, so parallel runs equal serial runs bit for bit; machines with
 * different pool sizes may differ in the last bits of dssim, exactly
 * like the backward rasterizer.
 *
 * Scratch: 12 doubles per pixel with gradients (3 SSIM planes, 9
 * coefficient planes; 3 without), plus one ring per strip of
 * (2r+2) x 15 x (strip width + 2r + 1) doubles and 15 carry doubles per
 * row and strip — about 4 MB at 256x144 with an 11-tap window and four
 * strips, where three whole-image tables once took 9.8 MB.
 *
 * The brute-force implementation is retained as computeLossReference()
 * — the ground truth for tests and the speedup baseline for
 * bench/micro_train_step.
 */

#ifndef CLM_RENDER_LOSS_HPP
#define CLM_RENDER_LOSS_HPP

#include <vector>

#include "render/image.hpp"

namespace clm {

/** Loss weighting and SSIM window parameters. */
struct LossConfig
{
    float lambda_dssim = 0.2f;    //!< Weight of the D-SSIM term.
    int ssim_window = 11;         //!< Box window edge (odd).
    float ssim_c1 = 0.01f * 0.01f;    //!< (k1 L)^2 with L = 1.
    float ssim_c2 = 0.03f * 0.03f;    //!< (k2 L)^2 with L = 1.
    /** Spread the loss's passes across the global thread pool. The
     *  SSIM sum's chunk partition is derived from the pool size whether
     *  or not this is set, so parallel and serial runs perform
     *  identical arithmetic (bitwise-equal results on any one machine;
     *  machines with different core counts may differ in the last bits
     *  of dssim, exactly like the backward rasterizer). The gradient and
     *  l1 never depend on the pool. */
    bool parallel = true;
};

/** Scalar loss values from one view. */
struct LossResult
{
    double total = 0.0;
    double l1 = 0.0;
    double dssim = 0.0;    //!< 1 - mean SSIM.
};

/** Wall-clock split of one computeLoss call (train-step bench). */
struct LossStageTimes
{
    double forward_s = 0;     //!< L1, statistics and carry passes.
    double backward_s = 0;    //!< Gradient scatter strips.
};

/**
 * Reusable scratch for the loss. One per concurrently-evaluating caller
 * (a Trainer owns one); sized as in the file comment, reused across
 * calls.
 */
struct LossScratch
{
    std::vector<double> ssim;     //!< 3 planes of w*h per-center SSIM.
    std::vector<double> coeff;    //!< 9 planes of w*h coefficients.
    std::vector<double> carry;    //!< Row-prefix carries per row, strip.
    std::vector<double> ring;     //!< One SAT row ring per strip.
};

/**
 * Compute the loss between @p rendered and @p ground_truth.
 *
 * @param d_rendered When non-null, filled with dL/d(rendered) (same size
 *        as the images); the buffer is overwritten, not accumulated.
 */
LossResult computeLoss(const Image &rendered, const Image &ground_truth,
                       Image *d_rendered, const LossConfig &config = {});

/**
 * Scratch-reusing overload for hot loops (bitwise-identical results).
 * @p times, when non-null, receives the forward/backward wall split.
 */
LossResult computeLoss(const Image &rendered, const Image &ground_truth,
                       Image *d_rendered, const LossConfig &config,
                       LossScratch &scratch,
                       LossStageTimes *times = nullptr);

/**
 * Reference implementation: the serial O(w*h*window^2) brute-force
 * window sweep (forward and backward). Retained as the accuracy ground
 * truth for tests and as the speedup baseline for the train-step
 * micro-bench; not used by any training path.
 */
LossResult computeLossReference(const Image &rendered,
                                const Image &ground_truth,
                                Image *d_rendered,
                                const LossConfig &config = {},
                                LossStageTimes *times = nullptr);

/**
 * Mean SSIM between two images (box window, clamped borders). Forward
 * only, via the same strip passes as computeLoss: it returns the same
 * ssim_sum / (3 * pixels) that computeLoss's dssim = 1 - mean is
 * computed from.
 */
double meanSsim(const Image &a, const Image &b, const LossConfig &config = {});

} // namespace clm

#endif // CLM_RENDER_LOSS_HPP
