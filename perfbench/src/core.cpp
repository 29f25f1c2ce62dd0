#include "core.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "math/rng.hpp"
#include "scene/camera_path.hpp"
#include "scene/synthetic.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

namespace {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Inputs
makeInputs(uint64_t seed, size_t max_batches, size_t max_requests)
{
    Inputs in;
    in.seed = seed;
    in.scene = clm::SceneSpec::bigCity();
    in.scene.seed = splitmix64(seed);
    in.scene.train = {kTrainGaussians, kTrainViews, kTrainWidth,
                      kTrainHeight};

    in.train.scene = in.scene;
    in.train.system = clm::SystemKind::Clm;
    in.train.model_size = kTrainGaussians;
    in.train.train.seed = splitmix64(seed ^ 0x7a11);
    in.train.applySceneDefaults();

    clm::Rng batch_rng(splitmix64(seed ^ 0xba7c));
    in.batches.resize(max_batches);
    for (auto &b : in.batches)
        for (int i = 0; i < kTrainBatch; ++i)
            b.push_back(static_cast<int>(
                batch_rng.uniformInt(0, kTrainViews - 1)));

    clm::Rng req_rng(splitmix64(seed ^ 0x5e7e));
    in.requests.resize(max_requests);
    for (uint32_t &r : in.requests)
        r = static_cast<uint32_t>(req_rng.uniformInt(0, kNovelViews - 1));
    return in;
}

std::vector<clm::Camera>
novelPath(const clm::SceneSpec &scene)
{
    return clm::generateCameraPath(scene, kNovelViews, kServeWidth,
                                   kServeHeight);
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const unsigned char *c = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= c[i];
        h *= 1099511628211ull;
    }
    return h;
}

InputHashes
hashInputs(const Inputs &in, size_t scene_gaussians)
{
    InputHashes h;
    h.scene = clm::hashModelParams(
        clm::generateGroundTruth(in.scene, scene_gaussians));
    uint64_t b = fnv1a(nullptr, 0);
    for (const auto &batch : in.batches)
        b = fnv1a(batch.data(), batch.size() * sizeof(int), b);
    h.batches = b;
    h.requests = fnv1a(in.requests.data(),
                       in.requests.size() * sizeof(uint32_t));
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / v.size();
}

Percentile
percentile(std::vector<double> v, double p, size_t min_beyond)
{
    Percentile r;
    r.samples = v.size();
    if (v.empty() || !(p > 0 && p < 100))
        return r;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    rank = std::max<size_t>(rank, 1);
    r.value = v[rank - 1];
    r.beyond = v.size() - rank;
    r.ok = r.beyond >= min_beyond;
    return r;
}

SpanLog::SpanLog() : t0_(std::chrono::steady_clock::now()) {}

double
SpanLog::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

int
SpanLog::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ms = nowMs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanLog::end(int id)
{
    spans_[id].end_ms = nowMs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": 1, \"ts\": " << s.start_ms * 1e3
          << ", \"dur\": " << (s.end_ms - s.start_ms) * 1e3 << "}"
          << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    f << "]}\n";
    return static_cast<bool>(f);
}

std::map<std::string, double>
foldSelfTime(const std::vector<Span> &spans)
{
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child_ms[s.parent] += s.end_ms - s.start_ms;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] +=
            spans[i].end_ms - spans[i].start_ms - child_ms[i];
    return self;
}

std::vector<double>
unexplainedMs(const std::vector<Span> &spans, const std::string &root_name)
{
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child_ms[s.parent] += s.end_ms - s.start_ms;
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent < 0 && spans[i].name == root_name)
            out.push_back(spans[i].end_ms - spans[i].start_ms
                          - child_ms[i]);
    return out;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

std::pair<uint64_t, uint64_t>
cpuStealJiffies()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (cpu != "cpu")
        return {0, 0};
    uint64_t total = 0, steal = 0, v = 0;
    std::string line;
    std::getline(f, line);
    std::istringstream fields(line);
    for (int i = 0; fields >> v; ++i) {
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already included in user/nice.
        if (i < 8)
            total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
