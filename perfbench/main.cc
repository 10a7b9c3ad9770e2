/**
 * @file
 * perfbench — host-performance benchmark of dacsim (README.md here).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--digests FILE] [--out DIR]
 *   perfbench --write-digests FILE
 *
 * Workloads:
 *   paper_fig16    Figure 16's 29 kernels x 4 machines at paper scale,
 *                  serial, in process via runWorkload
 *   service_mixed  an in-process dacsimd daemon under a closed-loop
 *                  sweep client: every Figure 16 point at quick scale
 *                  once cold, re-requests served from the cache, and
 *                  predict requests
 *
 * With --trace 0 the end-to-end metrics are measured with tracing off;
 * with --trace 1 an untraced and a traced repetition alternate and the
 * per-layer metrics come from spans recorded around every call into a
 * module. Every op is checked (pinned RunStats digests, machines agree
 * on outputs, service outcomes byte-identical to direct runs) outside
 * the timed window. Human-readable lines go to stdout; the last line
 * is one JSON object {correct, attempted, failed, metrics}.
 */

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "perfbench.h"

using namespace dacsim;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** Regenerate the pinned table: every Figure 16 point at paper and
 * quick scale, through runWorkload. */
int
writeDigests(const std::string &path)
{
    const std::vector<std::string> all = allBenchNames();
    std::vector<Point> pts = sweepPoints(all, paperScale);
    for (const Point &p : sweepPoints(all, quickScale))
        pts.push_back(p);
    std::vector<RunOutcome> outs(pts.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> th;
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned w = 0; w < n; ++w)
        th.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < pts.size();)
                outs[i] = runWorkload(pts[i].bench, runOptions(pts[i]));
        });
    for (std::thread &t : th)
        t.join();
    PinnedTable table;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!outs[i].error.ok() || outs[i].fellBack) {
            std::fprintf(stderr, "perfbench: %s/%s failed: %s\n",
                         pts[i].bench.c_str(), machineKey(pts[i].tech),
                         outs[i].error.what.c_str());
            return 1;
        }
        table.put(pts[i], digestOf(outs[i]));
    }
    if (!table.save(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu digests to %s\n", table.size(), path.c_str());
    return 0;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    a->self = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n", k.c_str());
            return false;
        }
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--trace") {
            a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--digests") {
            a->digests = v;
        } else if (k == "--out") {
            a->out = v;
        } else if (k == "--write-digests") {
            a->writeDigests = v;
        } else if (k == "--probe-setup-fd") {
            a->probeFd = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else {
            std::fprintf(stderr, "perfbench: unknown option %s\n", k.c_str());
            return false;
        }
        if (end != nullptr && (*end != '\0' || v.empty())) {
            std::fprintf(stderr, "perfbench: %s: not a number: %s\n",
                         k.c_str(), v.c_str());
            return false;
        }
    }
    if (!a->writeDigests.empty())
        return true;
    if (a->workload != "paper_fig16" && a->workload != "service_mixed") {
        std::fprintf(stderr, "perfbench: --workload must be paper_fig16 "
                             "or service_mixed\n");
        return false;
    }
    if (a->seconds < 1 || a->seconds > 600 ||
        (a->trace != 0 && a->trace != 1)) {
        std::fprintf(stderr, "perfbench: --seconds must be 1..600 and "
                             "--trace 0 or 1\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, &a))
        return 2;
    if (!a.writeDigests.empty())
        return writeDigests(a.writeDigests);
    if (a.probeFd >= 0)
        return (a.workload == "service_mixed" ? serviceSetupOnly(a)
                                              : sweepSetupOnly(a))
                   ? 0
                   : 1;
    std::error_code ec;
    fs::create_directories(a.out, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s\n", a.out.c_str());
        return 1;
    }
    try {
        if (a.workload == "service_mixed")
            return runServiceWorkload(a);
        return runSweepWorkload(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
