/**
 * @file
 * Self-tests of the benchmark's own machinery:
 *
 *   perfbench_tests perfbench/pinned_digests.tsv
 *
 * (registered with CTest by this directory's CMakeLists.txt). Exits 0
 * when every check holds, 1 otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++failures;                                                   \
        }                                                                 \
    } while (0)

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
percentileNeedsTenSamplesBeyond()
{
    double x = -1;
    CHECK(!percentile(ramp(999), 99, &x));
    CHECK(x == -1);
    CHECK(percentile(ramp(1000), 99, &x));
    CHECK(x == 990); // 10 samples (991..1000) lie beyond
    CHECK(!percentile(ramp(19), 50, &x));
    CHECK(percentile(ramp(20), 50, &x));
    CHECK(x == 10);
    CHECK(!percentile(ramp(39), 75, &x));
    CHECK(percentile(ramp(40), 75, &x));
    CHECK(x == 30);
    CHECK(percentile(ramp(116), 90, &x)); // the service's sim tail
    CHECK(!percentile(ramp(116), 99, &x));
    CHECK(!percentile({}, 50, &x));
    x = -1;
    CHECK(!tailMean(ramp(999), 99, &x));
    CHECK(x == -1);
    CHECK(tailMean(ramp(1000), 99, &x));
    CHECK(x == 995.5); // mean of 991..1000
    CHECK(tailMean(ramp(116), 90, &x));
    CHECK(x == 111); // mean of 106..116, the 11 beyond rank 105
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 2, 3}) == 2.5);
}

Span
span(const char *name, std::int64_t a, std::int64_t b, long parent)
{
    Span s;
    s.name = name;
    s.startNs = a;
    s.endNs = b;
    s.parent = parent;
    return s;
}

void
selfTimeArithmetic()
{
    // op [0,100] with prepare [0,40] (holding alloc [5,10]) and launch
    // [40,100]: self times 0 / 35 / 5 / 60 sum to the root's 100.
    std::vector<Span> tree = {
        span("op", 0, 100, -1), span("prepare", 0, 40, 0),
        span("alloc", 5, 10, 1), span("launch", 40, 100, 0)};
    std::vector<std::int64_t> self = selfTimesNs(tree);
    CHECK(self == (std::vector<std::int64_t>{0, 35, 5, 60}));
    CHECK(wellNested(tree));

    // Gaps between children stay with the parent; two launches of the
    // same layer add up by name.
    std::vector<Span> gaps = {
        span("op", 0, 100, -1), span("launch", 10, 30, 0),
        span("launch", 50, 60, 0), span("other", 200, 210, -1)};
    auto byName = selfTimeByName(gaps);
    CHECK(byName["op"] == 70);
    CHECK(byName["launch"] == 30);
    CHECK(byName["other"] == 10);

    // Overlapping children are covered once; a child running past its
    // parent is clipped for the arithmetic and flagged as not nested.
    std::vector<Span> bad = {span("op", 0, 100, -1), span("a", 10, 30, 0),
                             span("b", 20, 50, 0), span("c", 90, 120, 0)};
    CHECK(selfTimesNs(bad)[0] == 100 - 40 - 10);
    CHECK(!wellNested(bad));
}

/** Every machine of FFT at quick scale: cheap and fully pinned. */
std::vector<Point>
fftPoints()
{
    return sweepPoints({"FFT"}, quickScale);
}

void
tamperedDigestIsAFailedOp(const std::string &pinsPath)
{
    PinnedTable pins;
    std::string err;
    CHECK(pins.load(pinsPath, &err));
    const std::vector<Point> pts = fftPoints();
    std::vector<RunOutcome> outs;
    for (const Point &p : pts)
        outs.push_back(dacsim::runWorkload(p.bench, runOptions(p)));
    CHECK(failedOps(pins, pts, outs).empty());

    // Flip one bit of one pinned state hash in a copy of the file.
    std::ifstream in(pinsPath);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    const std::string victim = "FFT mta 3fd0000000000000 ";
    int tampered = 0;
    for (std::string &l : lines) {
        if (l.rfind(victim, 0) == 0) {
            char &c = l[victim.size()];
            c = c == '0' ? '1' : '0';
            ++tampered;
        }
    }
    CHECK(tampered == 1);
    const std::string path = "perfbench_tests_tampered.tsv";
    {
        std::ofstream out(path);
        for (const std::string &l : lines)
            out << l << "\n";
    }
    PinnedTable bad;
    CHECK(bad.load(path, &err));
    std::remove(path.c_str());
    const std::vector<OpFailure> f = failedOps(bad, pts, outs);
    CHECK(f.size() == 1);
    CHECK(!f.empty() && pts[f[0].index].tech == Technique::Mta);

    // A machine whose outputs differ from the baseline's fails too.
    outs[3].checksums.push_back(1);
    CHECK(failedOps(pins, pts, outs).size() == 1);
}

void
tracedRunMatchesRunWorkload()
{
    for (const Point &p : fftPoints()) {
        Tracer tr;
        const long root = tr.open("harness.op", 1, -1);
        const RunOutcome t = tracedRun(p, tr, 1, root);
        tr.close(root);
        const RunOutcome u = dacsim::runWorkload(p.bench, runOptions(p));
        CHECK(t.error.ok());
        CHECK(t.stats == u.stats);
        CHECK(t.checksums == u.checksums);
        CHECK(t.hashChain == u.hashChain);
        const std::vector<Span> spans = tr.spans();
        CHECK(wellNested(spans));
        CHECK(spans.size() >= 5); // op, prepare, decouple, init, launch
    }
}

std::vector<std::string>
encoded(std::vector<dacsim::service::JobSpec> v, bool keepIds)
{
    std::vector<std::string> out;
    for (auto &s : v) {
        if (!keepIds)
            s.id = 0;
        out.push_back(dacsim::service::encodeSpec(s));
    }
    return out;
}

void
seededJobStream()
{
    const auto a = jobStream(7), b = jobStream(7), c = jobStream(8);
    CHECK(a.size() >= 1000);
    CHECK(encoded(a, true) == encoded(b, true));
    std::vector<std::string> ea = encoded(a, false), ec = encoded(c, false);
    CHECK(ea != ec);
    std::sort(ea.begin(), ea.end());
    std::sort(ec.begin(), ec.end());
    CHECK(ea == ec);
    std::size_t predict = 0;
    for (const auto &s : a)
        predict += s.kind == dacsim::service::JobKind::Predict;
    CHECK(predict == 116);
    CHECK(a.size() == 116 * (2 + hitsPerPoint));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_tests PINNED_DIGESTS\n");
        return 2;
    }
    percentileNeedsTenSamplesBeyond();
    selfTimeArithmetic();
    tamperedDigestIsAFailedOp(argv[1]);
    tracedRunMatchesRunWorkload();
    seededJobStream();
    std::printf("perfbench_tests: %s (%d failed checks)\n",
                failures == 0 ? "ok" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
}
