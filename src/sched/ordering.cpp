#include "sched/ordering.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>

#include "math/mat.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

const char *
orderingName(OrderingStrategy s)
{
    switch (s) {
      case OrderingStrategy::Random:
        return "Random Order";
      case OrderingStrategy::Camera:
        return "Camera Order";
      case OrderingStrategy::GsCount:
        return "GS Count Order";
      case OrderingStrategy::Tsp:
        return "TSP Order";
    }
    return "?";
}

std::vector<OrderingStrategy>
allOrderingStrategies()
{
    return {OrderingStrategy::Random, OrderingStrategy::Camera,
            OrderingStrategy::GsCount, OrderingStrategy::Tsp};
}

namespace {

/** Fewest view pairs worth forking the overlap-matrix fill for. */
constexpr size_t kMinParallelPairs = 64;

} // namespace

size_t
intersectionSize(const std::vector<uint32_t> &a,
                 const std::vector<uint32_t> &b)
{
    size_t i = 0, j = 0, n = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++n;
            ++i;
            ++j;
        }
    }
    return n;
}

size_t
symmetricDifferenceSize(const std::vector<uint32_t> &a,
                        const std::vector<uint32_t> &b)
{
    return a.size() + b.size() - 2 * intersectionSize(a, b);
}

DistanceMatrix
buildOverlapDistanceMatrix(const std::vector<std::vector<uint32_t>> &sets)
{
    // One sorted-set merge per pair, spread over the pool by pair (rows
    // shrink toward the bottom of the triangle, so splitting by row
    // would load the first chunk most). Each pair writes only its own
    // two cells and the counts are integer-exact, so any split yields
    // the same matrix.
    const size_t n = sets.size();
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    pairs.reserve(n < 2 ? 0 : n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            pairs.emplace_back(static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j));
    DistanceMatrix d(n);
    poolForRange(pairs.size(), true, kMinParallelPairs,
                 [&](size_t begin, size_t end) {
                     for (size_t p = begin; p < end; ++p) {
                         const auto [i, j] = pairs[p];
                         d.set(i, j, static_cast<double>(
                                         symmetricDifferenceSize(sets[i],
                                                                 sets[j])));
                     }
                 });
    return d;
}

namespace {

/** Principal axis of a point set via power iteration on the covariance. */
Vec3
principalAxis(const std::vector<Vec3> &pts)
{
    if (pts.size() < 2)
        return {1, 0, 0};
    Vec3 mean{0, 0, 0};
    for (const Vec3 &p : pts)
        mean += p;
    mean *= 1.0f / pts.size();

    Mat3 cov;
    for (const Vec3 &p : pts) {
        Vec3 d = p - mean;
        cov.m[0][0] += d.x * d.x;
        cov.m[0][1] += d.x * d.y;
        cov.m[0][2] += d.x * d.z;
        cov.m[1][1] += d.y * d.y;
        cov.m[1][2] += d.y * d.z;
        cov.m[2][2] += d.z * d.z;
    }
    cov.m[1][0] = cov.m[0][1];
    cov.m[2][0] = cov.m[0][2];
    cov.m[2][1] = cov.m[1][2];

    Vec3 v{1.0f, 0.7f, 0.3f};
    for (int it = 0; it < 32; ++it) {
        Vec3 nv = cov.mul(v);
        float n = nv.norm();
        if (n < 1e-20f)
            return {1, 0, 0};
        v = nv * (1.0f / n);
    }
    return v;
}

} // namespace

std::vector<int>
orderViews(OrderingStrategy strategy, size_t n_views,
           const OrderingInputs &inputs)
{
    std::vector<int> order(n_views);
    std::iota(order.begin(), order.end(), 0);
    if (n_views <= 1)
        return order;

    switch (strategy) {
      case OrderingStrategy::Random: {
        std::mt19937_64 rng(inputs.seed);
        std::shuffle(order.begin(), order.end(), rng);
        break;
      }
      case OrderingStrategy::Camera: {
        CLM_ASSERT(inputs.camera_centers
                       && inputs.camera_centers->size() == n_views,
                   "camera order needs camera centers");
        Vec3 axis = principalAxis(*inputs.camera_centers);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return (*inputs.camera_centers)[a].dot(axis)
                 < (*inputs.camera_centers)[b].dot(axis);
        });
        break;
      }
      case OrderingStrategy::GsCount: {
        CLM_ASSERT(inputs.sets && inputs.sets->size() == n_views,
                   "GS count order needs in-frustum sets");
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return (*inputs.sets)[a].size() > (*inputs.sets)[b].size();
        });
        break;
      }
      case OrderingStrategy::Tsp: {
        CLM_ASSERT(inputs.sets && inputs.sets->size() == n_views,
                   "TSP order needs in-frustum sets");
        DistanceMatrix d = buildOverlapDistanceMatrix(*inputs.sets);
        TspConfig cfg = inputs.tsp;
        cfg.seed = inputs.seed;
        TspResult r = solveTsp(d, cfg);
        order = r.tour;
        break;
      }
    }
    return order;
}

} // namespace clm
