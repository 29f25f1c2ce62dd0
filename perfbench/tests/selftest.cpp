/**
 * @file
 * Self-tests of the benchmark's own helpers (no library timing): seeded
 * inputs are reproducible and seed-sensitive, the percentile helper
 * reports its support and refuses thin tails, and span self-time
 * folding is exact on a hand-built tree. Exits non-zero on any failure.
 *
 * Run: python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += !ok;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testSeeds()
{
    const size_t gaussians = 2000;
    InputHashes a = hashInputs(makeInputs(7, 16, 512), gaussians);
    InputHashes b = hashInputs(makeInputs(7, 16, 512), gaussians);
    InputHashes c = hashInputs(makeInputs(8, 16, 512), gaussians);
    expect(a.scene == b.scene, "same seed, same scene");
    expect(a.batches == b.batches, "same seed, same batch list");
    expect(a.requests == b.requests, "same seed, same request stream");
    expect(a.scene != c.scene, "other seed, other scene");
    expect(a.batches != c.batches, "other seed, other batch list");
    expect(a.requests != c.requests, "other seed, other request stream");

    Inputs in = makeInputs(7, 3, 10);
    expect(in.batches.size() == 3 && in.batches[0].size() == kTrainBatch,
           "batch list has the requested shape");
    expect(in.train.train.batch_size == kTrainBatch,
           "session batch is the BigCity batch");
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Percentile p99 = percentile(v, 99);
    expect(p99.samples == 1000 && p99.beyond == 10 && p99.ok
               && near(p99.value, 990),
           "p99 of 1..1000 is 990 with 10 samples beyond");
    v.pop_back();
    Percentile thin = percentile(v, 99);
    expect(thin.samples == 999 && thin.beyond == 9 && !thin.ok,
           "p99 of 999 samples is refused (9 beyond)");
    expect(!percentile({}, 50).ok && percentile({}, 50).samples == 0,
           "empty input is refused");
    expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
           "median of odd and even counts");
}

void
testFolding()
{
    // step [0,100] -> a [10,40] -> a.x [20,30]; b [50,90]; step [100,150]
    std::vector<Span> spans = {
        {"step", -1, 0, 100},  {"a", 0, 10, 40},  {"a.x", 1, 20, 30},
        {"b", 0, 50, 90},      {"step", -1, 100, 150},
    };
    auto self = foldSelfTime(spans);
    expect(near(self["step"], 30 + 50), "root self time excludes children");
    expect(near(self["a"], 20), "middle span excludes its child");
    expect(near(self["a.x"], 10) && near(self["b"], 40), "leaf self time");
    auto un = unexplainedMs(spans, "step");
    expect(un.size() == 2 && near(un[0], 30) && near(un[1], 50),
           "unexplained time per root span");

    SpanLog log;
    {
        ScopedBenchSpan outer(&log, "outer");
        ScopedBenchSpan inner(&log, "inner");
    }
    ScopedBenchSpan off(nullptr, "ignored");
    expect(log.spans().size() == 2 && log.spans()[1].parent == 0
               && log.spans()[0].parent == -1,
           "scoped spans nest and a null log records nothing");
}

} // namespace

int
main()
{
    testSeeds();
    testPercentile();
    testFolding();
    std::cout << (failures ? "FAILED" : "all passed") << "\n";
    return failures ? 1 : 0;
}
