/**
 * @file
 * The repository benchmark. One run = one workload, one seed, one
 * measured window; see ../README.md for the workloads, every metric and
 * the layer -> end-to-end table. The library is driven only through its
 * public calls and the program's own tracer stays off: every per-layer
 * number comes from spans this file records around those calls.
 *
 * Usage: clm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      [--spans-out FILE]
 *
 * The last stdout line is the result object; the line before it holds
 * the operation accounting, the noise context and any gate failures.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core.hpp"
#include "core/clm.hpp"
#include "math/simd_backend.hpp"
#include "offload/transfer_engine.hpp"
#include "render/culling.hpp"
#include "render/loss.hpp"
#include "render/rasterizer.hpp"
#include "scene/synthetic.hpp"
#include "serve/render_service.hpp"
#include "serve/snapshot.hpp"
#include "shard/router.hpp"
#include "shard/shard_batch.hpp"
#include "shard/sharded_snapshot.hpp"
#include "train/clm_trainer.hpp"
#include "train/trainer_context.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace clm;
using namespace perfbench;

namespace {

constexpr int kSetupReps = 5;        //!< setup_s is their median.
constexpr size_t kCheckSteps = 2;    //!< Steps the mirror gate replays.
/** train.psnr_db is taken on the model after this many steps, so it
 *  does not move with how many steps a run's window happened to fit. */
constexpr size_t kPsnrStep = 8;
constexpr size_t kMinTrainSteps = kPsnrStep;
constexpr size_t kMinNominalOk = 1000;    //!< p99 support.
constexpr size_t kFrameChecks = 24;       //!< Sampled bitwise frames.
constexpr int kReplayBatches = 12;
/** The untraced window runs as this many rounds of (train, nominal,
 *  overload), so every metric samples the whole window rather than one
 *  stretch of it: a burst of host contention then moves the medians
 *  less. */
constexpr int kRounds = 8;
/** Warm-up requests, spread along the path so every shard's cull cache
 *  is filled before timing. */
constexpr int kWarmupRequests = 32;

const char *const kSequential = "train-serve-city";
const char *const kLive = "serve-live";

// ---- Result --------------------------------------------------------------

class Result
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            fail("metric " + name + " is not finite");
            value = 0;
        }
        metrics_.push_back({name, value, unit});
    }
    void fail(const std::string &why)
    {
        correct_ = false;
        errors_.push_back(why);
    }
    void check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
    }
    void note(const std::string &key, double value)
    { notes_[key] = value; }
    void noteText(const std::string &key, const std::string &value)
    { texts_[key] = value; }

    bool correct() const { return correct_; }
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Accounting/context line, then the result line (last). */
    void print() const
    {
        std::ostringstream o;
        o << std::setprecision(std::numeric_limits<double>::max_digits10);
        o << "{\"perfbench\": {";
        for (const auto &[k, v] : texts_)
            o << "\"" << k << "\": \"" << v << "\", ";
        for (const auto &[k, v] : notes_)
            o << "\"" << k << "\": " << v << ", ";
        o << "\"errors\": [";
        for (size_t i = 0; i < errors_.size(); ++i)
            o << (i ? ", " : "") << "\"" << errors_[i] << "\"";
        o << "]}}\n";
        o << "{\"correct\": " << (correct_ ? "true" : "false")
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i)
            o << (i ? ", " : "") << "\"" << metrics_[i].name
              << "\": {\"value\": " << metrics_[i].value
              << ", \"unit\": \"" << metrics_[i].unit << "\"}";
        o << "}}\n";
        std::cout << o.str() << std::flush;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, double> notes_;
    std::map<std::string, std::string> texts_;
    std::vector<std::string> errors_;
    bool correct_ = true;
};

template <typename F>
double
timeS(F &&f)
{
    double t0 = nowS();
    f();
    return nowS() - t0;
}

bool
sameBits(const void *a, const void *b, size_t bytes)
{
    return std::memcmp(a, b, bytes) == 0;
}

bool
sameImage(const Image &a, const Image &b)
{
    return a.width() == b.width() && a.data().size() == b.data().size()
           && sameBits(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float));
}

bool
sameOutput(const RenderOutput &a, const RenderOutput &b)
{
    return sameImage(a.image, b.image) && a.final_t == b.final_t
           && a.n_contrib == b.n_contrib;
}

ClmTrainer &
clmTrainer(Clm &clm)
{
    auto *t = dynamic_cast<ClmTrainer *>(&clm.trainer());
    if (t == nullptr)
        throw std::runtime_error("session trainer is not a ClmTrainer");
    return *t;
}

ServeConfig
serveConfig()
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = kMaxBatch;
    cfg.queue_capacity = kQueueCapacity;
    cfg.admission.shed = ShedPolicy::Reject;
    cfg.admission.deadline_s = kDeadlineS;
    return cfg;
}

// ---- Training mirror -----------------------------------------------------

/**
 * ClmTrainer::trainBatch's sequence, re-run through TrainerContext and
 * TransferEngine with a span around every public call. Built from a
 * fresh session's initial state, it must reproduce the trainer's
 * per-step losses and parameters bit for bit.
 */
class TrainMirror
{
  public:
    explicit TrainMirror(const Clm &fresh)
        : model_(fresh.model()), config_(fresh.config().train),
          adam_(config_.adam), ctx_(model_, adam_, densifier_),
          engine_(model_.size(), engineConfig(config_))
    {
        if (config_.sh_degree_interval != 0)
            throw std::runtime_error("mirror assumes no SH ramp");
        for (size_t v = 0; v < fresh.viewCount(); ++v) {
            cameras_.push_back(fresh.camera(v));
            ground_truth_.push_back(fresh.trainer().groundTruth(v));
        }
        adam_.reset(model_.size());
        engine_.setFinalizeFn([this](const std::vector<uint32_t> &fin) {
            ScopedBenchSpan span(log_, "gaussian.adam");
            return ctx_.finalize(engine_.pool(), fin, false);
        });
        engine_.uploadParams(model_);
    }

    /** One batch; returns the mean loss exactly as trainBatch does.
     *  With a @p log the step is traced and its transfer counts kept. */
    double step(const std::vector<int> &ids, SpanLog *log)
    {
        log_ = log;
        ScopedBenchSpan root(log_, "train.step");
        BatchWorkload wl;
        {
            ScopedBenchSpan s(log_, "render.cull");
            wl = ctx_.buildWorkload(cameras_, ids);
        }
        PlannerConfig pc = config_.planner;
        pc.system = SystemKind::Clm;
        const BatchPlanResult *plan = nullptr;
        {
            ScopedBenchSpan s(log_, "offload.plan");
            plan = &ctx_.planViews(pc, wl);
        }
        {
            ScopedBenchSpan s(log_, "offload.begin_batch");
            engine_.beginBatch(ctx_.orderedSets(wl), plan->cache, plan->fin);
        }
        double loss = 0;
        for (size_t i = 0; i < ids.size(); ++i) {
            const int view = ids[plan->order[i]];
            const Camera &cam = cameras_[view];
            DeviceBuffer *buf = nullptr;
            {
                ScopedBenchSpan s(log_, "offload.acquire_wait");
                buf = &engine_.acquire(i);
            }
            const std::vector<uint32_t> &set = buf->indices();
            {
                ScopedBenchSpan s(log_, "offload.materialize");
                ctx_.materialize(*buf);
                ctx_.scratchGrads().zeroRows(set);
            }
            const RenderOutput *out = nullptr;
            {
                ScopedBenchSpan s(log_, "render.forward");
                out = &renderForward(ctx_.scratch(), cam, set,
                                     config_.render, arena_);
            }
            Image d_image;
            LossResult lr;
            {
                ScopedBenchSpan s(log_, "render.loss");
                lr = computeLoss(out->image, ground_truth_[view], &d_image,
                                 config_.loss, loss_scratch_);
            }
            {
                ScopedBenchSpan s(log_, "render.backward");
                renderBackward(ctx_.scratch(), cam, config_.render, *out,
                               d_image, ctx_.scratchGrads(), arena_);
            }
            loss += lr.total;
            {
                ScopedBenchSpan s(log_, "offload.accumulate");
                accumulateGradRows(ctx_.scratchGrads(), *buf);
            }
            {
                ScopedBenchSpan s(log_, "offload.release");
                engine_.release(i);
            }
        }
        {
            ScopedBenchSpan s(log_, "offload.end_batch");
            engine_.endBatch();
        }
        if (log_ == nullptr)
            return loss / ids.size();
        const TransferEngine::Counters &c = engine_.counters();
        loaded_ += c.records_loaded;
        stored_ += c.records_stored;
        hits_ += c.cache_hits;
        finalized_ += c.finalized;
        ++steps_;
        return loss / ids.size();
    }

    const GaussianModel &model() const { return model_; }
    size_t steps() const { return steps_; }
    size_t loaded() const { return loaded_; }
    size_t stored() const { return stored_; }
    size_t hits() const { return hits_; }
    size_t finalized() const { return finalized_; }
    size_t pinnedBytes() const { return engine_.pinnedBytes(); }
    size_t peakRows() const { return engine_.peakBufferRows(); }

  private:
    static TransferEngineConfig engineConfig(const TrainConfig &c)
    {
        TransferEngineConfig ec;
        ec.prefetch = c.prefetch;
        ec.async_finalize = c.async_adam;
        return ec;
    }

    SpanLog *log_ = nullptr;    //!< The current step's log, if traced.
    GaussianModel model_;
    TrainConfig config_;
    std::vector<Camera> cameras_;
    std::vector<Image> ground_truth_;
    CpuAdam adam_;
    Densifier densifier_;
    TrainerContext ctx_;
    TransferEngine engine_;
    RenderArena arena_;
    LossScratch loss_scratch_;
    size_t steps_ = 0, loaded_ = 0, stored_ = 0, hits_ = 0, finalized_ = 0;
};

// ---- Training through ClmTrainer::trainBatch ----------------------------

struct TrainRun
{
    std::vector<double> step_ms;
    std::vector<double> step_end_s;
    std::vector<double> losses;
    uint64_t hash_at_check = 0;   //!< Params after kCheckSteps steps.
    GaussianModel at_psnr_step;   //!< Params after kPsnrStep steps.
    uint64_t failed = 0;
};

/** Mean PSNR of @p model over the session's training views (the same
 *  renders as Trainer::evaluatePsnr, on a copied model). */
double
meanPsnr(const GaussianModel &model, const Clm &clm)
{
    RenderArena arena;
    double acc = 0;
    for (size_t v = 0; v < clm.viewCount(); ++v) {
        const Camera &cam = clm.camera(v);
        acc += renderForward(model, cam, frustumCull(model, cam),
                             clm.config().train.render, arena)
                   .image.psnr(clm.trainer().groundTruth(v));
    }
    return acc / clm.viewCount();
}

/** Continue @p r with the next batches in order until @p seconds have
 *  passed, running at least @p min_steps timed steps. The run's first
 *  batch is a warm-up step that fills the session's scratch buffers and
 *  is not timed; every step, warm-up included, counts toward the check
 *  and PSNR step numbers. */
void
trainFor(ClmTrainer &trainer, const Inputs &in, double seconds,
         size_t min_steps, TrainRun &r)
{
    auto step = [&](size_t k) {
        BatchStats st = trainer.trainBatch(in.batches.at(k));
        r.losses.push_back(st.loss);
        r.failed += !std::isfinite(st.loss);
        if (k + 1 == kCheckSteps)
            r.hash_at_check = hashModelParams(trainer.model());
        if (k + 1 == kPsnrStep)
            r.at_psnr_step = trainer.model();
    };
    if (r.losses.empty())
        step(0);
    const double t0 = nowS();
    for (size_t n = 0; n < min_steps || nowS() - t0 < seconds; ++n) {
        double t = nowS();
        step(r.losses.size());
        r.step_end_s.push_back(nowS());
        r.step_ms.push_back((r.step_end_s.back() - t) * 1e3);
    }
}

/** Training rate per round: kTrainBatch views over the mean step of the
 *  steps that ended in the round's window. The median over rounds keeps
 *  one disturbed round from setting the run's figure. */
double
imagesPerSecond(const TrainRun &r,
                const std::vector<std::pair<double, double>> &windows)
{
    std::vector<double> rates;
    for (const auto &[from, to] : windows) {
        std::vector<double> ms;
        for (size_t i = 0; i < r.step_ms.size(); ++i)
            if (r.step_end_s[i] > from && r.step_end_s[i] <= to)
                ms.push_back(r.step_ms[i]);
        if (!ms.empty())
            rates.push_back(kTrainBatch * 1e3 / mean(ms));
    }
    return median(rates);
}

/** Mirror gate: the mirror's losses and parameters after
 *  @p losses.size() steps equal the trainer's bit for bit. */
void
checkMirror(TrainMirror &mirror, const Inputs &in,
            const std::vector<double> &losses, uint64_t trainer_hash,
            Result &res)
{
    for (size_t k = 0; k < losses.size(); ++k) {
        double l = mirror.step(in.batches[k], nullptr);
        res.check(sameBits(&l, &losses[k], sizeof l),
                  "mirror loss differs from trainBatch at step "
                      + std::to_string(k));
    }
    res.check(hashModelParams(mirror.model()) == trainer_hash,
              "mirror parameters differ from trainBatch");
}

// ---- Open-loop request generator ----------------------------------------

struct Request
{
    int phase = 0;              //!< 0 nominal, 1 overload.
    int round = 0;
    uint32_t view = 0;
    double due_s = 0;           //!< Scheduled send time (absolute).
    double late_s = 0;          //!< Send start minus due.
    double admit_s = 0;         //!< submit() duration.
    double latency_ms = 0;      //!< Resolve minus due.
    uint64_t lag = 0;           //!< Latest version minus served version.
    ServeStatus status = ServeStatus::Ok;
    uint64_t version = 0, hash = 0;
    double queue_s = 0, render_s = 0;
    int batch = 0;
    Image image;                //!< Kept for sampled frames only.
};

/**
 * Send the next part of the request stream on a fixed schedule
 * (nominal_s at kNominalRps, then overload_s at kOverloadRps) from one
 * submitter thread while this thread collects futures in send order,
 * appending to @p out as round @p round. Latency runs from each request's scheduled time,
 * so a stall is charged to every request it delays.
 */
void
openLoop(RenderService &service, const std::vector<Camera> &path,
         const std::vector<uint32_t> &stream, double nominal_s,
         double overload_s, const std::function<uint64_t()> &latest,
         size_t keep_image_every, int round, std::vector<Request> &out)
{
    const size_t n0 = static_cast<size_t>(nominal_s * kNominalRps);
    const size_t n1 = static_cast<size_t>(overload_s * kOverloadRps);
    const size_t first = out.size();
    if (first + n0 + n1 > stream.size())
        throw std::runtime_error("request stream too short");
    std::vector<Request> reqs(n0 + n1);
    const double t0 = nowS() + 0.05;
    for (size_t k = 0; k < reqs.size(); ++k) {
        reqs[k].phase = k < n0 ? 0 : 1;
        reqs[k].round = round;
        reqs[k].view = stream[first + k];
        reqs[k].due_s = k < n0 ? t0 + k / kNominalRps
                               : t0 + nominal_s + (k - n0) / kOverloadRps;
    }

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<RenderResponse>>> inflight;
    bool done = false;
    std::thread submitter([&] {
        using clock = std::chrono::steady_clock;
        for (size_t k = 0; k < reqs.size(); ++k) {
            double wait = reqs[k].due_s - nowS();
            if (wait > 0)
                std::this_thread::sleep_until(
                    clock::now() + std::chrono::duration<double>(wait));
            double a = nowS();
            std::future<RenderResponse> f =
                service.submit(path[reqs[k].view]);
            double b = nowS();
            reqs[k].late_s = a - reqs[k].due_s;
            reqs[k].admit_s = b - a;
            std::lock_guard<std::mutex> lock(mu);
            inflight.emplace_back(k, std::move(f));
            cv.notify_one();
        }
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
    });

    for (;;) {
        std::pair<size_t, std::future<RenderResponse>> item;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done || !inflight.empty(); });
            if (inflight.empty())
                break;
            item = std::move(inflight.front());
            inflight.pop_front();
        }
        RenderResponse resp = item.second.get();
        Request &r = reqs[item.first];
        r.latency_ms = (nowS() - r.due_s) * 1e3;
        r.status = resp.status;
        r.version = resp.snapshot_version;
        r.hash = resp.snapshot_hash;
        r.queue_s = resp.queue_s;
        r.render_s = resp.render_s;
        r.batch = resp.batch_size;
        if (resp.ok()) {
            uint64_t now_version = latest();
            r.lag = now_version > r.version ? now_version - r.version : 0;
            if (r.phase == 0 && keep_image_every
                && (first + item.first) % keep_image_every == 0)
                r.image = std::move(resp.image);
        }
    }
    submitter.join();
    out.insert(out.end(), std::make_move_iterator(reqs.begin()),
               std::make_move_iterator(reqs.end()));
}

/** End-to-end serving metrics + accounting from one open-loop run. */
void
reportServing(const std::vector<Request> &reqs, double nominal_s,
              double overload_s, int rounds, Result &res, bool emit_metrics)
{
    std::vector<double> goodput(rounds, 0.0);
    std::vector<double> nominal_ms, late_ms;
    std::vector<std::vector<double>> nominal_by_round(rounds);
    size_t sent[2] = {0, 0}, ok[2] = {0, 0}, shed_full[2] = {0, 0},
           shed_deadline[2] = {0, 0}, other[2] = {0, 0}, over[2] = {0, 0};
    const double never_ms = nominal_s * 1e3;
    for (const Request &r : reqs) {
        const int p = r.phase;
        ++sent[p];
        late_ms.push_back(r.late_s * 1e3);
        switch (r.status) {
          case ServeStatus::Ok: ++ok[p]; break;
          case ServeStatus::ShedQueueFull: ++shed_full[p]; break;
          case ServeStatus::ShedDeadline: ++shed_deadline[p]; break;
          default: ++other[p]; break;
        }
        const bool good = r.status == ServeStatus::Ok;
        if (good && r.latency_ms > kGoodputLimitMs)
            ++over[p];
        else if (good && p == 1)
            goodput[r.round] += 1;
        // A failed or shed request never answers within the phase.
        if (p == 0) {
            nominal_ms.push_back(good ? r.latency_ms : never_ms);
            nominal_by_round[r.round].push_back(nominal_ms.back());
        }
    }
    const char *names[2] = {"nominal", "overload"};
    for (int p = 0; p < 2; ++p) {
        std::string k = std::string("serve.") + names[p] + ".";
        res.note(k + "sent", sent[p]);
        res.note(k + "ok", ok[p]);
        res.note(k + "shed_queue_full", shed_full[p]);
        res.note(k + "shed_deadline", shed_deadline[p]);
        res.note(k + "failed_other", other[p]);
        res.note(k + "late_past_limit", over[p]);
    }
    Percentile late99 = percentile(late_ms, 99);
    res.note("generator.late_p99_ms", late99.value);
    res.note("generator.late_max_ms",
             late_ms.empty() ? 0 : *std::max_element(late_ms.begin(),
                                                     late_ms.end()));
    res.attempted += sent[0] + sent[1];
    // A shed is the service's designed answer to a queue or deadline it
    // cannot meet: it is charged as latency (never answered in the
    // nominal phase, no goodput in the overload phase), not as a failed
    // operation. Rejected or throttled requests are failures.
    res.failed += other[0] + other[1];
    res.check(other[0] + other[1] == 0, "requests rejected or throttled");

    Percentile p99 = percentile(nominal_ms, 99);
    res.note("serve.p99_samples", p99.samples);
    res.note("serve.p99_ms", p99.value);
    res.check(ok[0] >= kMinNominalOk && p99.ok,
              "nominal phase has too few OK samples for p99 ("
                  + std::to_string(ok[0]) + ")");
    if (emit_metrics) {
        // Medians over rounds, so a burst of host contention that
        // disturbs a few rounds does not set the run's figure.
        std::vector<double> p50s;
        for (const std::vector<double> &ms : nominal_by_round)
            p50s.push_back(median(ms));
        res.note("serve.p50_round_min_ms",
                 *std::min_element(p50s.begin(), p50s.end()));
        res.note("serve.p50_round_max_ms",
                 *std::max_element(p50s.begin(), p50s.end()));
        res.add("serve.p50_ms", median(p50s), "ms");
        for (double &g : goodput)
            g /= overload_s / rounds;
        res.add("serve.goodput_rps", median(goodput), "1/s");
    } else {
        res.add("serve.p99_ms", p99.value, "ms");
    }
}

/** Serving per-layer metrics from the responses themselves. */
void
reportServeLayers(const std::vector<Request> &reqs, const ServeStats &st,
                  Result &res)
{
    std::vector<double> admit, queue, render, lag;
    size_t overload = 0, shed_full = 0, shed_deadline = 0;
    for (const Request &r : reqs) {
        admit.push_back(r.admit_s * 1e3);
        if (r.phase == 1) {
            ++overload;
            shed_full += r.status == ServeStatus::ShedQueueFull;
            shed_deadline += r.status == ServeStatus::ShedDeadline;
        }
        if (r.status == ServeStatus::Ok) {
            queue.push_back(r.queue_s * 1e3);
            render.push_back(r.render_s * 1e3);
            lag.push_back(static_cast<double>(r.lag));
        }
    }
    Percentile q99 = percentile(queue, 99);
    res.check(q99.ok, "too few OK responses for queue-wait p99");
    res.add("serve.admit_ms", median(admit), "ms");
    res.add("serve.queue_wait_p50_ms", median(queue), "ms");
    res.add("serve.queue_wait_p99_ms", q99.value, "ms");
    res.add("serve.render_ms", median(render), "ms");
    res.add("serve.batch_mean", st.mean_batch, "requests");
    res.add("serve.shed_queue_full_frac",
            overload ? double(shed_full) / overload : 0, "fraction");
    res.add("serve.shed_deadline_frac",
            overload ? double(shed_deadline) / overload : 0, "fraction");
    res.add("serve.snapshot_lag", mean(lag), "versions");
}

/** Sampled served frames equal frustumCull + renderForward on @p model. */
void
checkFrames(const std::vector<Request> &reqs, const GaussianModel &model,
            const std::vector<Camera> &path, const RenderConfig &render,
            Result &res)
{
    RenderArena arena;
    size_t checked = 0;
    for (const Request &r : reqs) {
        if (r.image.data().empty() || checked >= kFrameChecks)
            continue;
        const Camera &cam = path[r.view];
        const RenderOutput &ref =
            renderForward(model, cam, frustumCull(model, cam), render,
                          arena);
        res.check(sameImage(r.image, ref.image),
                  "served frame differs from renderForward");
        ++checked;
    }
    res.note("gate.frames_checked", checked);
    res.check(checked > 0, "no served frame was checked");
}

/** Every OK response names a (version, hash) pair seen at a publish. */
void
checkProvenance(const std::vector<Request> &reqs,
                const std::set<std::pair<uint64_t, uint64_t>> &published,
                Result &res)
{
    size_t bad = 0, checked = 0;
    for (const Request &r : reqs)
        if (r.status == ServeStatus::Ok) {
            ++checked;
            bad += published.count({r.version, r.hash}) == 0;
        }
    res.note("gate.provenance_checked", checked);
    res.note("gate.versions_published", published.size());
    res.check(bad == 0, std::to_string(bad)
                            + " responses name an unpublished snapshot");
}

// ---- Serve replay (traced run) -------------------------------------------

/** Replay the request stream in batches of kMaxBatch through routing
 *  and the composed pipeline (warm and cold cull cache), plus
 *  frustumCull + renderForward per view, which is also the bitwise
 *  reference for both composed frames. */
void
serveReplay(const ShardedSnapshot &snap, const std::vector<Camera> &path,
            const std::vector<uint32_t> &stream, SpanLog &log, Result &res)
{
    const GaussianModel &model = snap.base->model;
    const uint64_t version = snap.base->version;
    RenderConfig render = serveConfig().render;
    ShardRouter router(snap);
    ShardBatchRenderArena warm, cold;
    RenderArena ref_arena;
    std::vector<uint32_t> selected;
    double selected_sum = 0;
    size_t routed = 0, mismatches = 0;

    auto batchCams = [&](int b) {
        std::vector<Camera> cams;
        for (int i = 0; i < kMaxBatch; ++i)
            cams.push_back(path[stream[(b * kMaxBatch + i) % stream.size()]]);
        return cams;
    };
    // Fill the (version, shard) cull cache before the warm timings.
    renderForwardBatchSharded(snap, router, batchCams(0), render, warm,
                              version);

    for (int b = 0; b < kReplayBatches; ++b) {
        std::vector<Camera> cams = batchCams(b);
        ScopedBenchSpan root(&log, "serve.replay_batch");
        for (const Camera &cam : cams) {
            ScopedBenchSpan s(&log, "shard.route");
            router.route(cam.frustum(), selected);
            selected_sum += double(selected.size()) / snap.shardCount();
            ++routed;
        }
        {
            ScopedBenchSpan s(&log, "shard.render_batch_cold");
            renderForwardBatchSharded(snap, router, cams, render, cold, 0);
        }
        {
            ScopedBenchSpan s(&log, "shard.render_batch");
            renderForwardBatchSharded(snap, router, cams, render, warm,
                                      version);
        }
        for (size_t v = 0; v < cams.size(); ++v) {
            std::vector<uint32_t> subset;
            {
                ScopedBenchSpan s(&log, "render.view_cull");
                subset = frustumCull(model, cams[v]);
            }
            const RenderOutput *ref = nullptr;
            {
                ScopedBenchSpan s(&log, "render.view_forward");
                ref = &renderForward(model, cams[v], subset, render,
                                     ref_arena);
            }
            mismatches += !sameOutput(warm.views[v].out, *ref);
            mismatches += !sameOutput(cold.views[v].out, *ref);
        }
    }
    res.check(mismatches == 0, "composed frames differ from renderForward");
    res.note("gate.replay_frames_checked", 2.0 * kReplayBatches * kMaxBatch);
    std::map<std::string, double> self = foldSelfTime(log.spans());
    const double nb = kReplayBatches, nv = routed;
    res.add("shard.route_ms", self["shard.route"] / nv, "ms");
    res.add("shard.selected_frac", selected_sum / nv, "fraction");
    res.add("shard.render_batch_ms", self["shard.render_batch"] / nb, "ms");
    res.add("shard.render_batch_cold_ms",
            self["shard.render_batch_cold"] / nb, "ms");
    res.add("render.view_cull_ms", self["render.view_cull"] / nv, "ms");
    res.add("render.view_forward_ms", self["render.view_forward"] / nv,
            "ms");
}

/** Train-side per-layer metrics from the mirror's spans and counters. */
void
reportTrainLayers(const SpanLog &log, const TrainMirror &mirror,
                  Result &res)
{
    std::map<std::string, double> self = foldSelfTime(log.spans());
    const double steps = std::max<size_t>(mirror.steps(), 1);
    const double views = steps * kTrainBatch;
    for (const char *name :
         {"render.forward", "render.loss", "render.backward", "render.cull",
          "offload.plan", "gaussian.adam", "offload.acquire_wait",
          "offload.materialize", "offload.accumulate", "offload.release",
          "offload.begin_batch", "offload.end_batch"})
        res.add(std::string(name) + "_ms", self[name] / steps, "ms");
    res.add("gaussian.adam_rows_per_step", mirror.finalized() / steps,
            "rows");
    res.add("offload.h2d_records_per_view", mirror.loaded() / views,
            "records");
    res.add("offload.d2h_records_per_view", mirror.stored() / views,
            "records");
    const double touched = mirror.hits() + mirror.loaded();
    res.add("offload.cache_hit_frac", touched ? mirror.hits() / touched : 0,
            "fraction");
    res.add("offload.pinned_mb", mirror.pinnedBytes() / 1048576.0, "MiB");
    res.add("offload.device_peak_rows", double(mirror.peakRows()), "rows");
    res.add("train.unexplained_ms",
            median(unexplainedMs(log.spans(), "train.step")), "ms");
}

// ---- Workload state --------------------------------------------------------

/** The static 400k-Gaussian snapshot, published once and sharded. */
struct StaticModel
{
    explicit StaticModel(const Inputs &in) : sharded(kShards)
    {
        GaussianModel model =
            generateSceneGaussians(in.scene, kServeGaussians);
        slot.publish(model, 0);
        sharded.publish(slot.acquire());
    }
    SnapshotSlot slot;
    ShardedSnapshotSlot sharded;
};

/** One complete set-up of a workload: the training session, the served
 *  model and a started service. */
struct Setup
{
    std::unique_ptr<Clm> clm;
    std::unique_ptr<StaticModel> static_model;    //!< Sequential only.
    std::vector<Camera> path;
    /** Declared last: destroyed (stopped and joined) before the slots
     *  it reads. */
    std::unique_ptr<RenderService> service;

    Setup(const Inputs &in, bool live)
        : clm(std::make_unique<Clm>(in.train)), path(novelPath(in.scene))
    {
        if (live)
            clm->enableSharding(kShards);
        else
            static_model = std::make_unique<StaticModel>(in);
        service = std::make_unique<RenderService>(shardedSlot(),
                                                  serveConfig());
    }
    ShardedSnapshotSlot &shardedSlot()
    {
        return static_model ? static_model->sharded
                            : *clm->shardedSnapshots();
    }
};

/** Fill caches before timing: a few requests, answered one at a time. */
void
warmUp(RenderService &service, const std::vector<Camera> &path)
{
    for (int i = 0; i < kWarmupRequests; ++i)
        service.submit(path[i * path.size() / kWarmupRequests]).get();
}

/** Build the set-up kSetupReps times; returns the last one and records
 *  setup_s. @p keep_first receives the first set-up's session. */
std::unique_ptr<Setup>
setUp(const Inputs &in, bool live, Result &res, std::unique_ptr<Clm> *keep_first)
{
    std::vector<double> times;
    std::unique_ptr<Setup> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset();
        double t = timeS([&] { s = std::make_unique<Setup>(in, live); });
        times.push_back(t);
        if (rep == 0 && keep_first)
            *keep_first = std::move(s->clm);    // serves a static model
    }
    res.add("setup_s", median(times), "s");
    return s;
}

// ---- Runs --------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 48;
    int trace = 0;
    std::string spans_out;
};

/** Phase lengths for a measured window of @p s seconds. */
struct Phases
{
    double train_s, nominal_s, overload_s;
    Phases(double s, bool live, bool traced)
    {
        if (traced) {
            train_s = s / 2;
            nominal_s = s / 2;
            overload_s = s / 12;
        } else if (live) {
            train_s = s;
            nominal_s = s * 2 / 3;
            overload_s = s - nominal_s;
        } else {
            train_s = s / 3;
            nominal_s = s / 2;
            overload_s = s - train_s - nominal_s;
        }
    }
};

Inputs
inputsFor(const Args &a, const Phases &ph)
{
    // Enough batches for the fastest plausible step rate; the stream
    // covers both phases.
    size_t batches = static_cast<size_t>(a.seconds * 20) + 64;
    size_t requests = static_cast<size_t>(ph.nominal_s * kNominalRps
                                          + ph.overload_s * kOverloadRps)
                      + 64;
    return makeInputs(a.seed, batches, requests);
}

void
runUntraced(const Args &a, Result &res)
{
    const bool live = a.workload == kLive;
    const Phases ph(a.seconds, live, false);
    const Inputs in = inputsFor(a, ph);
    std::unique_ptr<Clm> mirror_session;
    std::unique_ptr<Setup> s =
        setUp(in, live, res, live ? nullptr : &mirror_session);
    warmUp(*s->service, s->path);
    auto latest = [&] { return s->shardedSlot().version(); };

    // Submitter + collector, plus the trainer driver in serve-live.
    const unsigned generator_threads = live ? 3 : 2;
    res.note("generator.threads", generator_threads);
    res.check(generator_threads <= std::thread::hardware_concurrency(),
              "more generator threads than CPUs");
    const auto steal0 = cpuStealJiffies();
    TrainRun tr;
    std::vector<Request> reqs;
    std::vector<std::pair<double, double>> windows;    //!< Per round.
    std::set<std::pair<uint64_t, uint64_t>> published;
    if (live) {
        // Trainer driver thread: Clm::train republishes and re-shards the
        // model after every step while the service reads it.
        Clm &clm = *s->clm;
        auto record = [&] {
            auto snap = clm.snapshots().acquire();
            published.insert({snap->version, snap->param_hash});
        };
        // Untimed warm-up step, as in trainFor.
        tr.losses.push_back(clm.train(1).at(0).loss);
        tr.failed += !std::isfinite(tr.losses.back());
        record();
        std::atomic<bool> stop{false};
        std::thread trainer([&] {
            while (!stop.load()) {
                double t = nowS();
                std::vector<BatchStats> st = clm.train(1);
                tr.step_end_s.push_back(nowS());
                tr.step_ms.push_back((tr.step_end_s.back() - t) * 1e3);
                tr.losses.push_back(st.at(0).loss);
                tr.failed += !std::isfinite(st.at(0).loss);
                if (tr.losses.size() == kPsnrStep)
                    tr.at_psnr_step = clm.model();
                record();
            }
        });
        for (int round = 0; round < kRounds; ++round) {
            windows.emplace_back(nowS(), 0);
            openLoop(*s->service, s->path, in.requests,
                     ph.nominal_s / kRounds, ph.overload_s / kRounds,
                     latest, 0, round, reqs);
            windows.back().second = nowS();
        }
        stop = true;
        trainer.join();
    } else {
        const size_t keep_every =
            static_cast<size_t>(ph.nominal_s * kNominalRps / kFrameChecks);
        for (int round = 0; round < kRounds; ++round) {
            windows.emplace_back(nowS(), 0);
            trainFor(clmTrainer(*s->clm), in, ph.train_s / kRounds,
                     kMinTrainSteps / kRounds, tr);
            windows.back().second = nowS();
            openLoop(*s->service, s->path, in.requests,
                     ph.nominal_s / kRounds, ph.overload_s / kRounds,
                     latest, keep_every, round, reqs);
        }
    }
    const auto steal1 = cpuStealJiffies();
    s->service->stop();
    res.add("peak_rss_mb", peakRssMb(), "MiB");

    const size_t steps = tr.step_ms.size();
    res.attempted += tr.losses.size();
    res.failed += tr.failed;
    res.note("train.steps", steps);
    res.check(steps >= kMinTrainSteps, "too few training steps");
    res.add("train.images_per_s", imagesPerSecond(tr, windows), "1/s");
    res.add("train.step_p50_ms", median(tr.step_ms), "ms");
    res.check(tr.at_psnr_step.size() > 0, "no model at the PSNR step");
    res.add("train.psnr_db", meanPsnr(tr.at_psnr_step, *s->clm), "dB");
    reportServing(reqs, ph.nominal_s, ph.overload_s, kRounds, res, true);

    if (live) {
        checkProvenance(reqs, published, res);
    } else {
        auto base = s->static_model->slot.acquire();
        checkFrames(reqs, base->model, s->path, serveConfig().render, res);
        TrainMirror mirror(*mirror_session);
        checkMirror(mirror, in,
                    {tr.losses.begin(), tr.losses.begin() + kCheckSteps},
                    tr.hash_at_check, res);
    }
    res.note("noise.steal_jiffies", double(steal1.first - steal0.first));
    res.note("noise.steal_frac",
             steal1.second > steal0.second
                 ? double(steal1.first - steal0.first)
                       / double(steal1.second - steal0.second)
                 : 0.0);
}

void
runTraced(const Args &a, Result &res)
{
    const bool live = a.workload == kLive;
    const Phases ph(a.seconds, live, true);
    const Inputs in = inputsFor(a, ph);
    SpanLog train_log, serve_log;
    const auto steal0 = cpuStealJiffies();

    Setup s(in, live);
    Clm fresh(in.train);
    ClmTrainer &trainer = clmTrainer(*s.clm);

    // Untraced trainBatch and the traced mirror take turns over the same
    // batches, so both sides of trace_overhead_frac see the same host
    // conditions. Step 0 is the untimed warm-up on both sides.
    TrainMirror mirror(fresh);
    TrainRun base;
    std::vector<double> mirror_ms;
    const double t0 = nowS();
    for (size_t k = 0; k <= kMinTrainSteps || nowS() - t0 < ph.train_s;
         ++k) {
        trainFor(trainer, in, 0, k ? 1 : 0, base);
        double t = nowS();
        double l = mirror.step(in.batches[k], k ? &train_log : nullptr);
        if (k > 0)
            mirror_ms.push_back((nowS() - t) * 1e3);
        res.check(sameBits(&l, &base.losses[k], sizeof l),
                  "mirror loss differs from trainBatch at step "
                      + std::to_string(k));
    }
    res.check(hashModelParams(mirror.model())
                  == hashModelParams(trainer.model()),
              "mirror parameters differ from trainBatch");
    res.attempted += 2 * base.losses.size();
    res.failed += base.failed;
    reportTrainLayers(train_log, mirror, res);
    res.add("trace_overhead_frac",
            median(mirror_ms) / median(base.step_ms) - 1.0, "fraction");

    // Publish path: timed around the two public publish calls.
    std::vector<double> pub_ms, shard_pub_ms;
    std::vector<Request> reqs;
    if (live) {
        // The trained session keeps training beside a service of its
        // own, publishing explicitly so both publish calls are timed.
        SnapshotSlot slot;
        ShardedSnapshotSlot sharded(kShards);
        slot.publish(trainer.model(), 0);
        sharded.publish(slot.acquire());
        RenderService service(sharded, serveConfig());
        warmUp(service, s.path);
        std::atomic<bool> stop{false};
        std::thread driver([&] {
            for (size_t k = base.losses.size();
                 !stop.load() && k < in.batches.size(); ++k) {
                trainer.trainBatch(in.batches[k]);
                pub_ms.push_back(1e3 * timeS([&] {
                    slot.publish(trainer.model(), static_cast<int>(k));
                }));
                shard_pub_ms.push_back(1e3 * timeS([&] {
                    sharded.publish(slot.acquire());
                }));
            }
        });
        openLoop(service, s.path, in.requests, ph.nominal_s, ph.overload_s,
                 [&] { return slot.version(); }, 0, 0, reqs);
        stop = true;
        driver.join();
        service.stop();
        reportServeLayers(reqs, service.stats(), res);
        serveReplay(*sharded.acquire(), s.path, in.requests, serve_log,
                    res);
    } else {
        auto base_snap = s.static_model->slot.acquire();
        for (int rep = 0; rep < kSetupReps; ++rep) {
            SnapshotSlot slot;
            ShardedSnapshotSlot sharded(kShards);
            pub_ms.push_back(1e3 * timeS([&] {
                slot.publish(base_snap->model, 0);
            }));
            shard_pub_ms.push_back(1e3 * timeS([&] {
                sharded.publish(slot.acquire());
            }));
        }
        warmUp(*s.service, s.path);
        openLoop(*s.service, s.path, in.requests, ph.nominal_s,
                 ph.overload_s,
                 [&] { return s.static_model->sharded.version(); }, 0, 0,
                 reqs);
        s.service->stop();
        reportServeLayers(reqs, s.service->stats(), res);
        serveReplay(*s.static_model->sharded.acquire(), s.path, in.requests,
                    serve_log, res);
    }
    reportServing(reqs, ph.nominal_s, ph.overload_s, 1, res, false);
    res.add("train.publish_ms", median(pub_ms), "ms");
    res.add("shard.publish_ms", median(shard_pub_ms), "ms");
    const auto steal1 = cpuStealJiffies();
    res.note("noise.steal_jiffies", double(steal1.first - steal0.first));

    if (!a.spans_out.empty()) {
        res.check(train_log.writeChromeTrace(a.spans_out + ".train.json")
                      && serve_log.writeChromeTrace(a.spans_out
                                                    + ".serve.json"),
                  "could not write spans to " + a.spans_out);
    }
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else if (k == "--spans-out")
            a.spans_out = v;
        else
            return false;
    }
    return argc % 2 == 1
           && (a.workload == kSequential || a.workload == kLive)
           && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a)) {
            std::cerr << "usage: clm_perfbench --workload " << kSequential
                      << "|" << kLive
                      << " --seed N --seconds S --trace 0|1"
                         " [--spans-out PREFIX]\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "bad argument: " << e.what() << "\n";
        return 2;
    }

    Result res;
    res.noteText("workload", a.workload);
    res.noteText("simd_dispatch", simdDispatchName());
    res.noteText("build_type", PERFBENCH_BUILD_TYPE);
    res.note("seed", double(a.seed));
    res.note("seconds", a.seconds);
    res.note("noise.nproc", std::thread::hardware_concurrency());
    res.note("noise.pool_threads", ThreadPool::global().threads());
    try {
        if (a.trace)
            runTraced(a, res);
        else
            runUntraced(a, res);
    } catch (const std::exception &e) {
        res.fail(std::string("exception: ") + e.what());
    }
    res.print();
    return res.correct() ? 0 : 1;
}
