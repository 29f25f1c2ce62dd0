#include "gaussian/adam.hpp"

#include <cmath>
#include <numeric>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace clm {

void
CpuAdam::reset(size_t n)
{
    m_position_.assign(n, Vec3{});
    v_position_.assign(n, Vec3{});
    m_log_scale_.assign(n, Vec3{});
    v_log_scale_.assign(n, Vec3{});
    m_rotation_.assign(n, Quat{0, 0, 0, 0});
    v_rotation_.assign(n, Quat{0, 0, 0, 0});
    m_sh_.assign(n * kShDim, 0.0f);
    v_sh_.assign(n * kShDim, 0.0f);
    m_opacity_.assign(n, 0.0f);
    v_opacity_.assign(n, 0.0f);
    step_.assign(n, 0);
}

void
CpuAdam::step(float &param, float grad, float &m, float &v, float lr,
              float bc1, float bc2) const
{
    m = config_.beta1 * m + (1.0f - config_.beta1) * grad;
    v = config_.beta2 * v + (1.0f - config_.beta2) * grad * grad;
    float m_hat = m / bc1;
    float v_hat = v / bc2;
    param -= lr * m_hat / (std::sqrt(v_hat) + config_.epsilon);
}

void
CpuAdam::update(GaussianModel &model, const GaussianGrads &grads)
{
    std::vector<uint32_t> all(model.size());
    std::iota(all.begin(), all.end(), 0u);
    updateSubset(model, grads, all);
}

void
CpuAdam::updateSubset(GaussianModel &model, const GaussianGrads &grads,
                      const std::vector<uint32_t> &indices)
{
    CLM_ASSERT(model.size() == size(),
               "optimizer state size mismatch: model=", model.size(),
               " adam=", size());
    CLM_ASSERT(grads.size() == size(), "gradient size mismatch");

    auto update_rows = [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k)
            updateRow(model, grads, indices[k]);
    };
    if (config_.parallel && indices.size() > 1024)
        ThreadPool::global().parallelFor(indices.size(), update_rows);
    else
        update_rows(0, indices.size());
}

float
CpuAdam::positionLr(uint32_t t) const
{
    if (config_.lr_position_final <= 0.0f
        || config_.lr_position_final == config_.lr_position
        || config_.position_lr_max_steps == 0) {
        return config_.lr_position;
    }
    float progress = std::min(
        1.0f, static_cast<float>(t)
                  / static_cast<float>(config_.position_lr_max_steps));
    // log-linear interpolation between initial and final LR.
    return config_.lr_position
           * std::pow(config_.lr_position_final / config_.lr_position,
                      progress);
}

void
CpuAdam::updateRow(GaussianModel &model, const GaussianGrads &grads,
                   uint32_t i)
{
    {
        uint32_t t = ++step_[i];
        float lr_pos = positionLr(t);
        // Bias corrections depend only on the row's step count: computed
        // once here instead of twice per parameter inside step().
        const float bc1 =
            1.0f - std::pow(config_.beta1, static_cast<float>(t));
        const float bc2 =
            1.0f - std::pow(config_.beta2, static_cast<float>(t));

        Vec3 &p = model.position(i);
        step(p.x, grads.d_position[i].x, m_position_[i].x, v_position_[i].x,
             lr_pos, bc1, bc2);
        step(p.y, grads.d_position[i].y, m_position_[i].y, v_position_[i].y,
             lr_pos, bc1, bc2);
        step(p.z, grads.d_position[i].z, m_position_[i].z, v_position_[i].z,
             lr_pos, bc1, bc2);

        Vec3 &s = model.logScale(i);
        step(s.x, grads.d_log_scale[i].x, m_log_scale_[i].x,
             v_log_scale_[i].x, config_.lr_log_scale, bc1, bc2);
        step(s.y, grads.d_log_scale[i].y, m_log_scale_[i].y,
             v_log_scale_[i].y, config_.lr_log_scale, bc1, bc2);
        step(s.z, grads.d_log_scale[i].z, m_log_scale_[i].z,
             v_log_scale_[i].z, config_.lr_log_scale, bc1, bc2);

        Quat &q = model.rotation(i);
        step(q.w, grads.d_rotation[i].w, m_rotation_[i].w, v_rotation_[i].w,
             config_.lr_rotation, bc1, bc2);
        step(q.x, grads.d_rotation[i].x, m_rotation_[i].x, v_rotation_[i].x,
             config_.lr_rotation, bc1, bc2);
        step(q.y, grads.d_rotation[i].y, m_rotation_[i].y, v_rotation_[i].y,
             config_.lr_rotation, bc1, bc2);
        step(q.z, grads.d_rotation[i].z, m_rotation_[i].z, v_rotation_[i].z,
             config_.lr_rotation, bc1, bc2);

        float *sh = model.sh(i);
        const float *dsh = &grads.d_sh[size_t(i) * kShDim];
        float *msh = &m_sh_[size_t(i) * kShDim];
        float *vsh = &v_sh_[size_t(i) * kShDim];
        for (int k = 0; k < kShDim; ++k)
            step(sh[k], dsh[k], msh[k], vsh[k], config_.lr_sh, bc1, bc2);

        step(model.rawOpacity(i), grads.d_opacity[i], m_opacity_[i],
             v_opacity_[i], config_.lr_opacity, bc1, bc2);
    }
}

} // namespace clm
