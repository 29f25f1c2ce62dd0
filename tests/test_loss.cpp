/**
 * @file
 * SAT-loss tests: the summed-area-table SSIM forward/backward against
 * the retained brute-force reference (random images, window-clipped
 * borders included), a finite-difference gradient check of the full
 * SSIM+L1 backward at the production window size, parallel ≡ serial
 * bitwise determinism, and scratch-reuse bit-exactness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "math/rng.hpp"
#include "render/image.hpp"
#include "render/loss.hpp"
#include "util/mix.hpp"

namespace clm {
namespace {

Image
randomImage(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.setPixel(x, y, {rng.uniform(0.0f, 1.0f),
                                rng.uniform(0.0f, 1.0f),
                                rng.uniform(0.0f, 1.0f)});
    return img;
}

void
expectLossMatchesReference(int w, int h, int window, uint64_t seed)
{
    Image x = randomImage(w, h, seed);
    Image y = randomImage(w, h, seed + 1);
    LossConfig cfg;
    cfg.ssim_window = window;

    Image d_sat, d_ref;
    LossResult sat = computeLoss(x, y, &d_sat, cfg);
    LossResult ref = computeLossReference(x, y, &d_ref, cfg);

    // Same L1 reduction, identical bits.
    EXPECT_EQ(sat.l1, ref.l1);
    // The SAT arithmetic regroups the window sums; values agree to
    // double-rounding levels.
    EXPECT_NEAR(sat.dssim, ref.dssim, 1e-9);
    EXPECT_NEAR(sat.total, ref.total, 1e-9);

    ASSERT_EQ(d_sat.data().size(), d_ref.data().size());
    for (size_t i = 0; i < d_ref.data().size(); ++i) {
        double r = d_ref.data()[i];
        ASSERT_NEAR(d_sat.data()[i], r, 1e-8 + 1e-5 * std::abs(r))
            << "grad index " << i << " (" << w << "x" << h << " win "
            << window << ")";
    }
}

TEST(SatLoss, MatchesBruteForceOnRandomImages)
{
    expectLossMatchesReference(16, 16, 5, 100);
    expectLossMatchesReference(33, 21, 11, 101);    // odd, non-square
    expectLossMatchesReference(64, 24, 7, 102);
}

TEST(SatLoss, MatchesBruteForceWhenWindowClipsEverywhere)
{
    // 8x8 image with an 11-tap window: every center's window is clipped
    // by at least one border, so the clamped-count (1/N) paths are the
    // only paths exercised.
    expectLossMatchesReference(8, 8, 11, 103);
    // Extreme: window wider than both image dimensions.
    expectLossMatchesReference(5, 3, 11, 104);
}

TEST(SatLoss, MeanSsimMatchesReference)
{
    Image a = randomImage(24, 18, 105);
    Image b = randomImage(24, 18, 106);
    LossConfig cfg;
    double sat = meanSsim(a, b, cfg);
    double ref = 1.0 - computeLossReference(a, b, nullptr, cfg).dssim;
    EXPECT_NEAR(sat, ref, 1e-9);
    EXPECT_NEAR(meanSsim(a, a, cfg), 1.0, 1e-6);
}

TEST(SatLoss, GradientMatchesFiniteDifferenceAtProductionWindow)
{
    // FD check of the full (1-lam)*L1 + lam*D-SSIM backward with the
    // production 11-tap window on an image small enough that every
    // window is border-clipped.
    Rng rng(9);
    const int w = 16, h = 12;
    Image x = randomImage(w, h, 107);
    Image y = randomImage(w, h, 108);
    LossConfig cfg;    // ssim_window = 11
    Image d;
    computeLoss(x, y, &d, cfg);

    const float eps = 1e-3f;
    Rng pick(10);
    for (int it = 0; it < 30; ++it) {
        size_t idx = static_cast<size_t>(
            pick.uniformInt(0, static_cast<int64_t>(x.data().size()) - 1));
        float saved = x.data()[idx];
        x.data()[idx] = saved + eps;
        double lp = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved - eps;
        double lm = computeLoss(x, y, nullptr, cfg).total;
        x.data()[idx] = saved;
        double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(d.data()[idx], fd, 2e-2 * std::max(1e-4, std::abs(fd)))
            << "pixel value index " << idx;
    }
}

TEST(SatLoss, ParallelBitwiseIdenticalToSerial)
{
    // Chunk partitions are derived from the pool size, never from the
    // parallel flag, and partial sums reduce in chunk order — so the
    // parallel loss (forward values AND the gradient image) must equal
    // the serial loss bit for bit.
    Image x = randomImage(64, 48, 109);
    Image y = randomImage(64, 48, 110);
    LossConfig serial;
    serial.parallel = false;
    LossConfig parallel;
    parallel.parallel = true;

    Image d_serial, d_parallel;
    LossResult a = computeLoss(x, y, &d_serial, serial);
    LossResult b = computeLoss(x, y, &d_parallel, parallel);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.l1, b.l1);
    EXPECT_EQ(a.dssim, b.dssim);
    EXPECT_EQ(d_serial.data(), d_parallel.data());    // bitwise
}

TEST(SatLoss, ScratchReuseBitwiseIdentical)
{
    // One scratch reused across differently-sized calls reproduces the
    // scratch-free overload bit for bit.
    LossScratch scratch;
    LossConfig cfg;
    int sizes[][2] = {{48, 32}, {16, 12}, {48, 32}};
    uint64_t seed = 111;
    for (auto &wh : sizes) {
        Image x = randomImage(wh[0], wh[1], seed++);
        Image y = randomImage(wh[0], wh[1], seed++);
        Image d_fresh, d_reused;
        LossResult fresh = computeLoss(x, y, &d_fresh, cfg);
        LossResult reused =
            computeLoss(x, y, &d_reused, cfg, scratch, nullptr);
        EXPECT_EQ(fresh.total, reused.total);
        EXPECT_EQ(fresh.dssim, reused.dssim);
        EXPECT_EQ(d_fresh.data(), d_reused.data());
    }
}

// ---------------------------------------------------------------------------
// Golden bits: the loss gradient and L1 of seeded cases, pinned as
// FNV-1a hashes of the raw float/double bits. The gradient never depends
// on the pool size or the kernel table, so these also hold every SIMD
// backend (CLM_SIMD) and thread count (CLM_THREADS) to one bit pattern.
// ---------------------------------------------------------------------------

/** How a golden case fills its pixels. */
enum class Fill
{
    kRandom,      //!< Uniform [0, 1) values.
    kFlat,        //!< One constant per image.
    kEndpoints,   //!< Mostly exact 0 and 1, some uniform values.
};

/** Pixel values from SplitMix64 alone (no <random> distribution), so the
 *  inputs are the same under every standard library. */
Image
goldenImage(int w, int h, uint64_t seed, Fill fill)
{
    Image img(w, h);
    std::vector<float> &d = img.data();
    for (size_t i = 0; i < d.size(); ++i) {
        const uint64_t bits = splitmix64(seed * 0x100000001b3ull + i);
        const float u = static_cast<float>(bits >> 40) * 0x1.0p-24f;
        switch (fill) {
        case Fill::kRandom:
            d[i] = u;
            break;
        case Fill::kFlat:
            d[i] = static_cast<float>(seed % 7) / 8.0f;
            break;
        case Fill::kEndpoints:
            d[i] = (bits & 3) == 0 ? 0.0f : (bits & 3) == 1 ? 1.0f : u;
            break;
        }
    }
    return img;
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h = 1469598103934665603ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

struct GoldenCase
{
    const char *name;
    int w, h, window;
    uint64_t seed_x, seed_y;
    Fill fill_x, fill_y;
    bool ties;                //!< Copy x into y on every third value.
    uint64_t grad_hash;       //!< FNV-1a of d_rendered's float bits.
    uint64_t l1_bits;         //!< Bits of LossResult::l1.
};

TEST(SatLoss, GoldenBits)
{
    const GoldenCase cases[] = {
        {"256x144 w11", 256, 144, 11, 1, 2, Fill::kRandom, Fill::kRandom,
         false, 0xe6960ea1d8e803baull, 0x3fd54be084ec25edull},
        {"67x23 w11", 67, 23, 11, 3, 4, Fill::kRandom, Fill::kRandom,
         false, 0x47a6825a6e8a1353ull, 0x3fd54f9081f029a4ull},
        {"130x9 w5", 130, 9, 5, 5, 6, Fill::kRandom, Fill::kRandom, false,
         0x7f679c8dd4df00f9ull, 0x3fd5277257e2d383ull},
        {"5x3 w11", 5, 3, 11, 7, 8, Fill::kRandom, Fill::kRandom, false,
         0xd7575281acf94cd2ull, 0x3fd4f826ec16c16cull},
        {"1x1 w11", 1, 1, 11, 9, 10, Fill::kRandom, Fill::kRandom, false,
         0x6e3eb5f7afa09fbcull, 0x3fcdf54a80000000ull},
        {"37x29 w3", 37, 29, 3, 11, 12, Fill::kRandom, Fill::kRandom, false,
         0xac4e073a7b152ffbull, 0x3fd5248c081ca148ull},
        {"37x29 w5", 37, 29, 5, 13, 14, Fill::kRandom, Fill::kRandom, false,
         0x7bb8aefb7318286ull, 0x3fd4e0f1768e5ad2ull},
        {"37x29 w7", 37, 29, 7, 15, 16, Fill::kRandom, Fill::kRandom, false,
         0xa049ceba49a2058aull, 0x3fd5484a55a6c512ull},
        {"flat 33x17 w11", 33, 17, 11, 17, 19, Fill::kFlat, Fill::kFlat,
         false, 0x59e58f96ab61058bull, 0x3fd0000000000000ull},
        {"flat vs random 41x13 w7", 41, 13, 7, 20, 21, Fill::kFlat,
         Fill::kRandom, false, 0x4c886e23d33a2d0bull,
         0x3fd4025d40853408ull},
        {"ties 71x31 w11", 71, 31, 11, 22, 23, Fill::kRandom, Fill::kRandom,
         true, 0x727d72c43bec59ebull, 0x3fcbecb9a92c8c0aull},
        {"identical 45x19 w11", 45, 19, 11, 24, 24, Fill::kRandom,
         Fill::kRandom, false, 0xd61f057ca6e317ceull, 0x0ull},
        {"endpoints 99x27 w11", 99, 27, 11, 25, 26, Fill::kEndpoints,
         Fill::kEndpoints, false, 0x3b90ef62e430b2acull,
         0x3fdd3bba1a566307ull},
    };
    for (const GoldenCase &gc : cases) {
        Image x = goldenImage(gc.w, gc.h, gc.seed_x, gc.fill_x);
        Image y = goldenImage(gc.w, gc.h, gc.seed_y, gc.fill_y);
        if (gc.ties)
            for (size_t i = 0; i < y.data().size(); i += 3)
                y.data()[i] = x.data()[i];
        LossConfig cfg;
        cfg.ssim_window = gc.window;
        Image d;
        const LossResult res = computeLoss(x, y, &d, cfg);
        uint64_t l1_bits;
        std::memcpy(&l1_bits, &res.l1, sizeof(l1_bits));
        const uint64_t grad_hash =
            fnv1a(d.data().data(), d.data().size() * sizeof(float));
        EXPECT_EQ(grad_hash, gc.grad_hash)
            << gc.name << ": gradient hash 0x" << std::hex << grad_hash;
        EXPECT_EQ(l1_bits, gc.l1_bits)
            << gc.name << ": l1 bits 0x" << std::hex << l1_bits;
    }
}

TEST(SatLoss, StageTimesReported)
{
    Image x = randomImage(32, 24, 120);
    Image y = randomImage(32, 24, 121);
    LossScratch scratch;
    LossStageTimes times;
    Image d;
    computeLoss(x, y, &d, {}, scratch, &times);
    EXPECT_GT(times.forward_s, 0.0);
    EXPECT_GT(times.backward_s, 0.0);
    // Forward-only calls must not report a backward phase.
    LossStageTimes fwd_only;
    computeLoss(x, y, nullptr, {}, scratch, &fwd_only);
    EXPECT_GT(fwd_only.forward_s, 0.0);
    EXPECT_EQ(fwd_only.backward_s, 0.0);
}

} // namespace
} // namespace clm
