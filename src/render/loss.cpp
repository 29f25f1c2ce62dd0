#include "render/loss.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "render/simd_kernels.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/** Fixed row-chunk plan shared by every parallel pass: derived from the
 *  pool size only (NOT from the parallel flag), so serial and parallel
 *  execution perform identical arithmetic — the backward-rasterizer
 *  determinism recipe. */
struct ChunkPlan
{
    size_t n_chunks = 1;
    size_t per_chunk = 0;

    static ChunkPlan forRows(size_t rows)
    {
        ChunkPlan p;
        p.n_chunks = std::max<size_t>(
            1, std::min<size_t>(
                   rows,
                   static_cast<size_t>(ThreadPool::global().threads()) * 2));
        p.per_chunk = rows == 0 ? 0 : (rows + p.n_chunks - 1) / p.n_chunks;
        return p;
    }
};

/** Run @p body(i) for every i in [0, n), across the pool or serially in
 *  order — the work items themselves never change. */
template <typename Body>
void
runEach(size_t n, bool parallel, const Body &body)
{
    if (parallel && n > 1) {
        ThreadPool::global().parallelFor(n, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                body(i);
        });
    } else {
        for (size_t i = 0; i < n; ++i)
            body(i);
    }
}

// ---------------------------------------------------------------------------
// Brute-force reference (the pre-SAT implementation, serial)
// ---------------------------------------------------------------------------

/**
 * Per-center SSIM statistics for one channel, plus the three coefficient
 * fields the backward pass scatters through the window.
 */
struct SsimField
{
    std::vector<double> mu_x, mu_y;
    std::vector<double> d_mu;      // dSSIM/dmu_x at each center
    std::vector<double> d_var;     // dSSIM/dsigma_x2 at each center
    std::vector<double> d_cov;     // dSSIM/dsigma_xy at each center
    std::vector<double> inv_n;     // 1/window-size at each center
    double ssim_sum = 0.0;
};

SsimField
ssimChannel(const Image &x_img, const Image &y_img, int ch,
            const LossConfig &cfg, bool want_grads)
{
    const int w = x_img.width();
    const int h = x_img.height();
    const int r = cfg.ssim_window / 2;
    const size_t n = static_cast<size_t>(w) * h;

    SsimField f;
    f.mu_x.resize(n);
    f.mu_y.resize(n);
    if (want_grads) {
        f.d_mu.assign(n, 0.0);
        f.d_var.assign(n, 0.0);
        f.d_cov.assign(n, 0.0);
        f.inv_n.assign(n, 0.0);
    }

    const std::vector<float> &xd = x_img.data();
    const std::vector<float> &yd = y_img.data();
    auto at = [&](const std::vector<float> &d, int px, int py) {
        return double(d[(static_cast<size_t>(py) * w + px) * 3 + ch]);
    };

    for (int py = 0; py < h; ++py) {
        for (int px = 0; px < w; ++px) {
            int x0 = std::max(px - r, 0), x1 = std::min(px + r, w - 1);
            int y0 = std::max(py - r, 0), y1 = std::min(py + r, h - 1);
            int cnt = (x1 - x0 + 1) * (y1 - y0 + 1);
            double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
            for (int yy = y0; yy <= y1; ++yy) {
                for (int xx = x0; xx <= x1; ++xx) {
                    double xv = at(xd, xx, yy);
                    double yv = at(yd, xx, yy);
                    sx += xv;
                    sy += yv;
                    sxx += xv * xv;
                    syy += yv * yv;
                    sxy += xv * yv;
                }
            }
            double mx = sx / cnt, my = sy / cnt;
            double vx = sxx / cnt - mx * mx;
            double vy = syy / cnt - my * my;
            double cxy = sxy / cnt - mx * my;

            double u = 2.0 * mx * my + cfg.ssim_c1;
            double v = 2.0 * cxy + cfg.ssim_c2;
            double s = mx * mx + my * my + cfg.ssim_c1;
            double t = vx + vy + cfg.ssim_c2;
            double ssim = (u * v) / (s * t);
            f.ssim_sum += ssim;

            size_t pi = static_cast<size_t>(py) * w + px;
            f.mu_x[pi] = mx;
            f.mu_y[pi] = my;
            if (want_grads) {
                f.d_mu[pi] = 2.0 * my * v / (s * t)
                           - (u * v) * 2.0 * mx / (s * s * t);
                f.d_var[pi] = -(u * v) / (s * t * t);
                f.d_cov[pi] = 2.0 * u / (s * t);
                f.inv_n[pi] = 1.0 / cnt;
            }
        }
    }
    return f;
}

// ---------------------------------------------------------------------------
// Column strips
// ---------------------------------------------------------------------------

/** Narrowest strip worth its own task: every strip re-folds the 2r
 *  halo columns its border windows reach into. */
constexpr int kMinStripWidth = 32;

/**
 * Column-strip partition of the image. Strip k owns the centers
 * [x0(k), x1(k)) and needs the SAT columns [xa(k), xb(k)] their clamped
 * windows touch. The partition only schedules work: every SAT entry is
 * the same fold whatever the split, so the result never depends on it.
 */
struct StripPlan
{
    int n = 1;       //!< Strip count.
    int per = 0;     //!< Centers per strip (the last may have fewer).
    int w = 0;
    int r = 0;
    int span = 0;    //!< Doubles per SAT field plane, >= xb - xa + 1.

    static StripPlan make(int w, int r, bool parallel)
    {
        StripPlan p;
        p.w = w;
        p.r = r;
        int want = 1;
        if (parallel)
            want = std::max(1, std::min<int>(ThreadPool::global().threads(),
                                             w / kMinStripWidth));
        p.per = std::max(1, (w + want - 1) / want);    // w may be 0
        p.n = (w + p.per - 1) / p.per;
        p.span = p.per + 2 * r + 1;
        return p;
    }

    int x0(int k) const { return std::min(k * per, w); }
    int x1(int k) const { return std::min(x0(k) + per, w); }
    int xa(int k) const { return std::max(x0(k) - r, 0); }
    int xb(int k) const { return std::min(x1(k) + r, w); }
};

/**
 * SAT inputs of the statistics pass: (x, y, x^2, y^2, x*y) per channel,
 * plane ch * kSsimStats + k.
 *
 * fold() advances the row-prefix fold of image row @p y over columns
 * [x0, x1) from @p run (updated in place). With kStore it writes the
 * running values of column x to out[f * plane + x - x0], plus the
 * previous SAT row's prev[f * plane + x - x0] with kPrev — a SAT row is
 * its row prefix plus the row above, the column-prefix add fused into
 * the fold. Each channel's five sums fold in registers.
 */
struct StatFields
{
    static constexpr int kCount = kSsimStatFields;
    const float *x, *y;
    int w;

    template <bool kStore, bool kPrev>
    void fold(int row, int x0, int x1, double *run, double *out,
              const double *prev, size_t plane) const
    {
        const size_t at = static_cast<size_t>(row) * w * 3;
        for (int ch = 0; ch < 3; ++ch) {
            const float *xr = x + at + ch;
            const float *yr = y + at + ch;
            double *r = run + ch * kSsimStats;
            double sx = r[0], sy = r[1], sxx = r[2], syy = r[3], sxy = r[4];
            const size_t f0 = static_cast<size_t>(ch * kSsimStats) * plane;
            double *o = kStore ? out + f0 : nullptr;
            const double *p = kPrev ? prev + f0 : nullptr;
            for (int px = x0; px < x1; ++px) {
                const double xv = xr[px * 3];
                const double yv = yr[px * 3];
                sx += xv;
                sy += yv;
                sxx += xv * xv;
                syy += yv * yv;
                sxy += xv * yv;
                if (kStore) {
                    const size_t i = px - x0;
                    o[i] = kPrev ? sx + p[i] : sx;
                    o[plane + i] = kPrev ? sy + p[plane + i] : sy;
                    o[2 * plane + i] = kPrev ? sxx + p[2 * plane + i] : sxx;
                    o[3 * plane + i] = kPrev ? syy + p[3 * plane + i] : syy;
                    o[4 * plane + i] = kPrev ? sxy + p[4 * plane + i] : sxy;
                }
            }
            r[0] = sx;
            r[1] = sy;
            r[2] = sxx;
            r[3] = syy;
            r[4] = sxy;
        }
    }
};

/** SAT inputs of the scatter pass: the planar coefficient image the
 *  statistics pass wrote. fold() as for StatFields, one channel's A, B
 *  and C per loop. */
struct CoeffFields
{
    static constexpr int kCount = kSsimCoeffFields;
    const double *coeff;
    int w;
    size_t pixels;    //!< Coefficient plane stride.

    template <bool kStore, bool kPrev>
    void fold(int row, int x0, int x1, double *run, double *out,
              const double *prev, size_t plane) const
    {
        const size_t at = static_cast<size_t>(row) * w;
        for (int ch = 0; ch < 3; ++ch) {
            const double *ca = coeff + ch * kSsimCoeffs * pixels + at;
            const double *cb = ca + pixels;
            const double *cc = cb + pixels;
            double *r = run + ch * kSsimCoeffs;
            double sa = r[0], sb = r[1], sc = r[2];
            const size_t f0 = static_cast<size_t>(ch * kSsimCoeffs) * plane;
            double *o = kStore ? out + f0 : nullptr;
            const double *p = kPrev ? prev + f0 : nullptr;
            for (int px = x0; px < x1; ++px) {
                sa += ca[px];
                sb += cb[px];
                sc += cc[px];
                if (kStore) {
                    const size_t i = px - x0;
                    o[i] = kPrev ? sa + p[i] : sa;
                    o[plane + i] = kPrev ? sb + p[plane + i] : sb;
                    o[2 * plane + i] = kPrev ? sc + p[2 * plane + i] : sc;
                }
            }
            r[0] = sa;
            r[1] = sb;
            r[2] = sc;
        }
    }
};

/**
 * Row-prefix carries of rows [y0, y1): for each strip k >= 1, the
 * left-to-right fold (from +0.0) of the row's fields over the columns
 * left of xa(k) — exactly the value the full-row fold of a SAT holds at
 * that column, so a strip resuming from it rebuilds the SAT bit for bit.
 * Layout: carry[(y * n + k) * kCount + f].
 */
template <typename Fields>
void
foldCarries(const StripPlan &sp, const Fields &fields, size_t y0,
            size_t y1, double *carry)
{
    constexpr int nf = Fields::kCount;
    for (size_t y = y0; y < y1; ++y) {
        double run[nf] = {};
        int x = 0;
        for (int k = 1; k < sp.n; ++k) {
            const int xa = sp.xa(k);
            fields.template fold<false, false>(static_cast<int>(y), x, xa,
                                               run, nullptr, nullptr, 0);
            x = xa;
            std::memcpy(carry + (y * sp.n + k) * nf, run, sizeof(run));
        }
    }
}

/**
 * Stream strip @p k's SAT rows top to bottom through @p ring (2r+2 rows
 * of Fields::kCount planes of sp.span doubles) and hand each center row
 * py its window's top (y0) and bottom (y1 + 1) SAT rows:
 * @p row(py, top, bot, rows). SAT row Y is the row-prefix fold of image
 * row Y-1 resumed from its carry, plus SAT row Y-1 — the same IEEE ops
 * in the same order as a full-image summed-area table. @p carry is null
 * for strip 0 (its fold starts at column 0 from +0.0).
 */
template <typename Fields, typename Row>
void
streamStrip(const StripPlan &sp, int k, int h, const Fields &fields,
            const double *carry, double *ring, const Row &row)
{
    constexpr int nf = Fields::kCount;
    const int slots = 2 * sp.r + 2;
    const size_t plane = static_cast<size_t>(sp.span);
    const size_t slot_size = nf * plane;
    const int xa = sp.xa(k);
    const int xb = sp.xb(k);
    auto slot = [&](int Y) { return ring + (Y % slots) * slot_size; };

    for (int f = 0; f < nf; ++f)    // SAT row 0: the zero guard row
        std::fill_n(slot(0) + f * plane, xb - xa + 1, 0.0);

    int produced = 0;
    for (int py = 0; py < h; ++py) {
        const int y0 = std::max(py - sp.r, 0);
        const int y1 = std::min(py + sp.r, h - 1);
        while (produced <= y1) {
            ++produced;
            const int y = produced - 1;
            double *dst = slot(produced);
            double run[nf] = {};
            if (carry)
                std::memcpy(run, carry + (static_cast<size_t>(y) * sp.n + k)
                                             * nf,
                            sizeof(run));
            // Column xa holds the carry itself; SAT row 1 is the bare
            // row prefix, later rows add the row above.
            if (produced == 1) {
                for (int f = 0; f < nf; ++f)
                    dst[f * plane] = run[f];
                fields.template fold<true, false>(y, xa, xb, run, dst + 1,
                                                  nullptr, plane);
            } else {
                const double *prev = slot(produced - 1);
                for (int f = 0; f < nf; ++f)
                    dst[f * plane] = run[f] + prev[f * plane];
                fields.template fold<true, true>(y, xa, xb, run, dst + 1,
                                                 prev + 1, plane);
            }
        }
        row(py, slot(y0), slot(y1 + 1), y1 - y0 + 1);
    }
}

/**
 * Forward statistics for every center: strip-parallel SAT streaming
 * into the kernel table's row kernel, then one row-chunked pass that
 * reduces the SSIM sum in one fixed order — per chunk of
 * ChunkPlan::forRows(h) rows over (py, px, channel), chunk partials
 * summed in chunk order — and, when @p coeff is wanted, folds the
 * coefficient carries of the backward strips. Returns the SSIM sum.
 */
double
ssimForward(const Image &x_img, const Image &y_img, const LossConfig &cfg,
            const StripPlan &sp, LossScratch &scratch, bool want_coeff)
{
    const int w = x_img.width();
    const int h = x_img.height();
    const size_t pixels = static_cast<size_t>(w) * h;
    const RenderKernels &kernels = renderKernels();
    const StatFields stats{x_img.data().data(), y_img.data().data(), w};
    const size_t ring_size = static_cast<size_t>(2 * sp.r + 2)
                           * kSsimStatFields * sp.span;
    const size_t carry_size = static_cast<size_t>(h) * sp.n
                            * kSsimStatFields;

    scratch.ssim.resize(3 * pixels);
    scratch.coeff.resize(want_coeff ? kSsimCoeffFields * pixels : 0);
    scratch.ring.resize(sp.n * ring_size);
    scratch.carry.resize(sp.n > 1 ? carry_size : 0);

    const ChunkPlan rows = ChunkPlan::forRows(h);
    if (sp.n > 1)
        runEach(rows.n_chunks, cfg.parallel, [&](size_t c) {
            const size_t y0 = c * rows.per_chunk;
            foldCarries(sp, stats, y0,
                        std::min<size_t>(y0 + rows.per_chunk, h),
                        scratch.carry.data());
        });

    SsimStatsRowArgs args{};
    args.plane = static_cast<size_t>(sp.span);
    args.width = w;
    args.radius = sp.r;
    args.c1 = cfg.ssim_c1;
    args.c2 = cfg.ssim_c2;
    args.out_plane = pixels;
    runEach(sp.n, cfg.parallel, [&](size_t strip) {
        const int k = static_cast<int>(strip);
        SsimStatsRowArgs a = args;
        a.xa = sp.xa(k);
        a.px0 = sp.x0(k);
        a.px1 = sp.x1(k);
        streamStrip(sp, k, h, stats,
                    k > 0 ? scratch.carry.data() : nullptr,
                    scratch.ring.data() + k * ring_size,
                    [&](int py, const double *top, const double *bot,
                        int n_rows) {
                        const size_t row0 = static_cast<size_t>(py) * w;
                        a.top = top;
                        a.bot = bot;
                        a.rows = n_rows;
                        a.ssim = scratch.ssim.data() + row0;
                        a.coeff = want_coeff
                                      ? scratch.coeff.data() + row0
                                      : nullptr;
                        kernels.ssim_stats_row(a);
                    });
    });

    const CoeffFields coeff{scratch.coeff.data(), w, pixels};
    std::vector<double> partials(rows.n_chunks, 0.0);
    runEach(rows.n_chunks, cfg.parallel, [&](size_t c) {
        const size_t y0 = c * rows.per_chunk;
        const size_t y1 = std::min<size_t>(y0 + rows.per_chunk, h);
        const double *s = scratch.ssim.data();
        double local = 0.0;
        for (size_t i = y0 * w; i < y1 * w; ++i)
            for (int ch = 0; ch < 3; ++ch)
                local += s[ch * pixels + i];
        partials[c] = local;
        if (want_coeff && sp.n > 1)
            foldCarries(sp, coeff, y0, y1, scratch.carry.data());
    });
    double ssim_sum = 0.0;
    for (double p : partials)
        ssim_sum += p;
    return ssim_sum;
}

} // namespace

// ---------------------------------------------------------------------------
// Strip-streamed loss
// ---------------------------------------------------------------------------

LossResult
computeLoss(const Image &rendered, const Image &gt, Image *d_rendered,
            const LossConfig &cfg)
{
    LossScratch scratch;
    return computeLoss(rendered, gt, d_rendered, cfg, scratch, nullptr);
}

LossResult
computeLoss(const Image &rendered, const Image &gt, Image *d_rendered,
            const LossConfig &cfg, LossScratch &scratch,
            LossStageTimes *times)
{
    CLM_ASSERT(rendered.width() == gt.width()
                   && rendered.height() == gt.height(),
               "image size mismatch");
    CLM_ASSERT(cfg.ssim_window % 2 == 1, "ssim window must be odd");

    const int w = rendered.width();
    const int h = rendered.height();
    const size_t pixels = rendered.pixels();
    const double lam = cfg.lambda_dssim;
    const StripPlan sp = StripPlan::make(w, cfg.ssim_window / 2,
                                         cfg.parallel);

    Timer timer;

    LossResult result;
    result.l1 = rendered.l1(gt);
    const double ssim_sum =
        ssimForward(rendered, gt, cfg, sp, scratch, d_rendered != nullptr);
    result.dssim = 1.0 - ssim_sum / (3.0 * pixels);
    result.total = (1.0 - lam) * result.l1 + lam * result.dssim;
    if (times)
        times->forward_s = timer.seconds();
    if (!d_rendered)
        return result;
    timer.reset();

    // Backward: stream the coefficient SAT strip by strip; each output
    // value is written exactly once, by the strip owning its column.
    d_rendered->resetUnfilled(w, h);
    const RenderKernels &kernels = renderKernels();
    const CoeffFields coeff{scratch.coeff.data(), w, pixels};
    const size_t ring_size = static_cast<size_t>(2 * sp.r + 2)
                           * kSsimCoeffFields * sp.span;
    SsimScatterRowArgs args{};
    args.plane = static_cast<size_t>(sp.span);
    args.width = w;
    args.radius = sp.r;
    args.l1_scale = (1.0 - lam) / rendered.data().size();
    args.ssim_scale = -lam / (3.0 * pixels);
    runEach(sp.n, cfg.parallel, [&](size_t strip) {
        const int k = static_cast<int>(strip);
        SsimScatterRowArgs a = args;
        a.xa = sp.xa(k);
        a.qx0 = sp.x0(k);
        a.qx1 = sp.x1(k);
        streamStrip(sp, k, h, coeff,
                    k > 0 ? scratch.carry.data() : nullptr,
                    scratch.ring.data() + k * ring_size,
                    [&](int qy, const double *top, const double *bot,
                        int) {
                        const size_t at = static_cast<size_t>(qy) * w * 3;
                        a.top = top;
                        a.bot = bot;
                        a.x = rendered.data().data() + at;
                        a.y = gt.data().data() + at;
                        a.d = d_rendered->data().data() + at;
                        kernels.ssim_scatter_row(a);
                    });
    });
    if (times)
        times->backward_s = timer.seconds();
    return result;
}

LossResult
computeLossReference(const Image &rendered, const Image &gt,
                     Image *d_rendered, const LossConfig &cfg,
                     LossStageTimes *times)
{
    CLM_ASSERT(rendered.width() == gt.width()
                   && rendered.height() == gt.height(),
               "image size mismatch");
    CLM_ASSERT(cfg.ssim_window % 2 == 1, "ssim window must be odd");

    const int w = rendered.width();
    const int h = rendered.height();
    const size_t total_vals = rendered.data().size();
    const double lam = cfg.lambda_dssim;

    Timer timer;
    double fwd_s = 0, bwd_s = 0;

    if (d_rendered)
        *d_rendered = Image(w, h, {0, 0, 0});

    LossResult result;
    result.l1 = rendered.l1(gt);

    // L1 gradient: (1-lam)/total * sign(x - y).
    if (d_rendered) {
        auto &dd = d_rendered->data();
        const auto &xd = rendered.data();
        const auto &yd = gt.data();
        double scale = (1.0 - lam) / total_vals;
        for (size_t i = 0; i < total_vals; ++i) {
            double diff = double(xd[i]) - double(yd[i]);
            dd[i] += static_cast<float>(
                scale * (diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0)));
        }
    }
    fwd_s += timer.seconds();

    // SSIM term, per channel.
    const int r = cfg.ssim_window / 2;
    double ssim_acc = 0.0;
    const double pixel_count = static_cast<double>(rendered.pixels());
    for (int ch = 0; ch < 3; ++ch) {
        timer.reset();
        SsimField f =
            ssimChannel(rendered, gt, ch, cfg, d_rendered != nullptr);
        ssim_acc += f.ssim_sum;
        fwd_s += timer.seconds();
        if (!d_rendered)
            continue;
        timer.reset();
        // dL/dx(q) = -lam / (3P) * sum_{centers p covering q} (1/N_p) *
        //   [d_mu(p) + d_var(p)*2*(x(q)-mu_x(p)) + d_cov(p)*(y(q)-mu_y(p))]
        auto &dd = d_rendered->data();
        const auto &xd = rendered.data();
        const auto &yd = gt.data();
        double scale = -lam / (3.0 * pixel_count);
        for (int qy = 0; qy < h; ++qy) {
            for (int qx = 0; qx < w; ++qx) {
                size_t qi = static_cast<size_t>(qy) * w + qx;
                double xq = xd[qi * 3 + ch];
                double yq = yd[qi * 3 + ch];
                double acc = 0.0;
                int py0 = std::max(qy - r, 0), py1 = std::min(qy + r, h - 1);
                int px0 = std::max(qx - r, 0), px1 = std::min(qx + r, w - 1);
                for (int py = py0; py <= py1; ++py) {
                    for (int px = px0; px <= px1; ++px) {
                        size_t pi = static_cast<size_t>(py) * w + px;
                        acc += f.inv_n[pi]
                             * (f.d_mu[pi]
                                + f.d_var[pi] * 2.0 * (xq - f.mu_x[pi])
                                + f.d_cov[pi] * (yq - f.mu_y[pi]));
                    }
                }
                dd[qi * 3 + ch] += static_cast<float>(scale * acc);
            }
        }
        bwd_s += timer.seconds();
    }
    double mean_ssim = ssim_acc / (3.0 * pixel_count);
    result.dssim = 1.0 - mean_ssim;
    result.total = (1.0 - lam) * result.l1 + lam * result.dssim;
    if (times) {
        times->forward_s = fwd_s;
        times->backward_s = bwd_s;
    }
    return result;
}

double
meanSsim(const Image &a, const Image &b, const LossConfig &cfg)
{
    CLM_ASSERT(a.width() == b.width() && a.height() == b.height(),
               "image size mismatch");
    CLM_ASSERT(cfg.ssim_window % 2 == 1, "ssim window must be odd");
    LossScratch scratch;
    const StripPlan sp =
        StripPlan::make(a.width(), cfg.ssim_window / 2, cfg.parallel);
    return ssimForward(a, b, cfg, sp, scratch, false) / (3.0 * a.pixels());
}

} // namespace clm
