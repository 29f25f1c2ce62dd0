/**
 * @file
 * The benchmark's own building blocks, kept apart from main.cpp so the
 * self-tests can exercise them: seeded input generation, the percentile
 * helper, the in-memory span log with self-time folding, and the small
 * process probes (peak RSS, CPU steal) that go into every result.
 */

#ifndef CLM_PERFBENCH_CORE_HPP
#define CLM_PERFBENCH_CORE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

/** @name Workload constants (fixed once; never derived from a measured
 *  capacity, so the same load is offered on every commit). */
/// @{
constexpr size_t kTrainGaussians = 64000;   //!< Trainee (and GT) size.
constexpr int kTrainViews = 64;
constexpr int kTrainWidth = 256;
constexpr int kTrainHeight = 144;
constexpr int kTrainBatch = 64;             //!< Table 3's BigCity batch.
constexpr size_t kServeGaussians = 400000;  //!< Static snapshot size.
constexpr int kNovelViews = 256;            //!< Request camera path.
constexpr int kServeWidth = 160;
constexpr int kServeHeight = 90;
constexpr int kShards = 8;
constexpr int kMaxBatch = 4;
constexpr size_t kQueueCapacity = 16;
constexpr double kDeadlineS = 0.050;
constexpr double kNominalRps = 60.0;
constexpr double kOverloadRps = 400.0;
constexpr double kGoodputLimitMs = 100.0;
/// @}

/** Everything a run feeds the program, generated from one seed. */
struct Inputs
{
    uint64_t seed = 0;
    clm::SceneSpec scene;            //!< BigCity with a seeded world.
    clm::ClmConfig train;            //!< Trainer session config.
    /** Training batches, kTrainBatch view ids each. */
    std::vector<std::vector<int>> batches;
    /** Request stream: indices into the kNovelViews path, in send
     *  order (the nominal phase first, then the overload phase). */
    std::vector<uint32_t> requests;
};

/** Build the inputs of @p seed with room for @p max_batches training
 *  batches and @p max_requests requests. */
Inputs makeInputs(uint64_t seed, size_t max_batches, size_t max_requests);

/** The novel request path of @p scene (kNovelViews at serving size). */
std::vector<clm::Camera> novelPath(const clm::SceneSpec &scene);

/** FNV-1a over raw bytes, chained through @p h. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 1469598103934665603ull);

/** Hashes that identify a run's inputs (self-tests compare them). */
struct InputHashes
{
    uint64_t scene = 0;      //!< Ground truth at @p scene_gaussians.
    uint64_t batches = 0;
    uint64_t requests = 0;
};
InputHashes hashInputs(const Inputs &in, size_t scene_gaussians);

/** @name Statistics */
/// @{
double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/** A tail percentile with its support. */
struct Percentile
{
    bool ok = false;
    double value = 0;
    size_t samples = 0;   //!< Values the percentile was taken over.
    size_t beyond = 0;    //!< Values strictly after the chosen rank.
};

/** Nearest-rank percentile @p p (in (0, 100)) of @p v. Refuses
 *  (ok = false) when fewer than @p min_beyond samples lie beyond the
 *  rank, so a reported p99 always rests on at least 10 worse samples. */
Percentile percentile(std::vector<double> v, double p,
                      size_t min_beyond = 10);
/// @}

/** @name Spans recorded around public calls (single-threaded log) */
/// @{
struct Span
{
    std::string name;
    int parent = -1;      //!< Index of the enclosing span, -1 at top.
    double start_ms = 0;
    double end_ms = 0;
};

class SpanLog
{
  public:
    SpanLog();
    /** Open a span nested in the innermost open one. */
    int begin(const char *name);
    void end(int id);
    const std::vector<Span> &spans() const { return spans_; }
    double nowMs() const;
    /** Write the spans as Chrome trace events ("X" records). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII wrapper around SpanLog::begin/end; a null log records
 *  nothing, so untraced runs pay one branch per call site. */
class ScopedBenchSpan
{
  public:
    ScopedBenchSpan(SpanLog *log, const char *name)
        : log_(log), id_(log ? log->begin(name) : -1) {}
    ~ScopedBenchSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedBenchSpan(const ScopedBenchSpan &) = delete;
    ScopedBenchSpan &operator=(const ScopedBenchSpan &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

/** Self time per span name: each span's duration minus the time its
 *  direct children cover, summed over every span of that name. */
std::map<std::string, double> foldSelfTime(const std::vector<Span> &spans);

/** Per top-level span of @p root_name: its duration minus its direct
 *  children's durations (time the spans do not explain). */
std::vector<double> unexplainedMs(const std::vector<Span> &spans,
                                  const std::string &root_name);
/// @}

/** @name Process probes */
/// @{
/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();
/** Aggregate CPU jiffies from /proc/stat: {steal, total}. */
std::pair<uint64_t, uint64_t> cpuStealJiffies();
/// @}

/** Seconds on the steady clock since an arbitrary epoch. */
double nowS();

} // namespace perfbench

#endif // CLM_PERFBENCH_CORE_HPP
