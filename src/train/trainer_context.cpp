#include "train/trainer_context.hpp"

#include <cstring>
#include <limits>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

namespace {

/** Fewest finalized rows worth forking into the pool: one row's chain
 *  is ~59 Adam steps plus four record copies (~1 us). */
constexpr size_t kMinParallelFinalizeRows = 64;

} // namespace

TrainerContext::TrainerContext(GaussianModel &model, CpuAdam &adam,
                               Densifier &densifier)
    : model_(model), adam_(adam), densifier_(densifier)
{
    rebuild();
}

void
TrainerContext::rebuild()
{
    // Attribute-wise offload (§4.1): non-critical attributes live in the
    // engine's pinned pool; critical attributes are resident here.
    // The scratch render model holds the critical attributes; its
    // non-critical rows are only valid while materialized.
    size_t n = model_.size();
    scratch_.resize(n);
    float rec[kCriticalDim];
    for (size_t i = 0; i < n; ++i) {
        model_.packCritical(i, rec);
        scratch_.unpackCritical(i, rec);
    }
    scratch_grads_.resize(n);
    cpu_grads_.resize(n);
}

BatchWorkload
TrainerContext::buildWorkload(const std::vector<Camera> &cameras,
                              const std::vector<int> &view_ids)
{
    CLM_ASSERT(!view_ids.empty(), "empty batch");
    BatchWorkload wl;
    std::vector<Camera> batch;
    batch.reserve(view_ids.size());
    wl.camera_centers.reserve(view_ids.size());
    for (int v : view_ids) {
        batch.push_back(cameras[v]);
        wl.camera_centers.push_back(cameras[v].eye());
    }
    // Only the critical attributes are read, and the scratch model's
    // are the resident store; finalize() keeps them current.
    frustumCullBatch(scratch_, batch, cull_scratch_, wl.sets);
    wl.n_synthetic = model_.size();
    wl.n_target = static_cast<double>(model_.size());
    wl.pixels_per_view = cameras[view_ids[0]].pixels();
    return wl;
}

const BatchPlanResult &
TrainerContext::planViews(const PlannerConfig &config,
                          const BatchWorkload &workload)
{
    last_plan_ = planBatch(config, workload);
    return last_plan_;
}

std::vector<std::vector<uint32_t>>
TrainerContext::orderedSets(const BatchWorkload &workload) const
{
    std::vector<std::vector<uint32_t>> ordered;
    ordered.reserve(last_plan_.order.size());
    for (int o : last_plan_.order)
        ordered.push_back(workload.sets[o]);
    return ordered;
}

void
TrainerContext::materialize(const DeviceBuffer &buf)
{
    const std::vector<uint32_t> &set = buf.indices();
    for (size_t r = 0; r < set.size(); ++r)
        scratch_.unpackNonCritical(set[r], buf.paramRow(r));
}

size_t
TrainerContext::finalize(PinnedPool &pool,
                         const std::vector<uint32_t> &fin,
                         bool observe_densify)
{
    CLM_ASSERT(model_.size() == adam_.size(),
               "optimizer state size mismatch: model=", model_.size(),
               " adam=", adam_.size());
    CLM_ASSERT(cpu_grads_.size() == model_.size(), "gradient size mismatch");
    // Gradients for each finalized row are complete in pinned memory:
    // stage them, run subset Adam on the master copy (§4.2.2, §5.4),
    // make the updated non-critical parameters visible to future loads,
    // reset the gradient record for the next batch, and push the
    // updated critical attributes back to the GPU store (§4.1).
    auto finalize_rows = [&](size_t begin, size_t end) {
        float rec[kCriticalDim];
        for (size_t k = begin; k < end; ++k) {
            const uint32_t g = fin[k];
            unpackGradRecord(pool.gradRecord(g), cpu_grads_, g);
            if (observe_densify)
                densifier_.observeNorm(g, cpu_grads_.positionGradNorm(g));
            adam_.updateRow(model_, cpu_grads_, g);
            model_.packNonCritical(g, pool.paramRecord(g));
            std::memset(pool.gradRecord(g), 0,
                        kParamsPerGaussian * sizeof(float));
            model_.packCritical(g, rec);
            scratch_.unpackCritical(g, rec);
        }
    };
    poolForRange(fin.size(), adam_.config().parallel,
                 kMinParallelFinalizeRows, finalize_rows);
    return fin.size();
}

void
TrainerContext::debugPoisonScratchNonCritical()
{
    float poison[kNonCriticalDim];
    for (int k = 0; k < kNonCriticalDim; ++k)
        poison[k] = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = 0; i < scratch_.size(); ++i)
        scratch_.unpackNonCritical(i, poison);
}

} // namespace clm
