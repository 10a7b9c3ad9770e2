/**
 * @file
 * The benchmark's building blocks, shared by the benchmark program and
 * its self-tests (tests.cc): the pinned digest table every op is
 * checked against, the traced replica of runWorkload(), and the seeded
 * service job stream.
 */

#ifndef DACSIM_PERFBENCH_BENCH_H
#define DACSIM_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "service/codec.h"
#include "trace.h"

namespace perfbench
{

using dacsim::RunOutcome;
using dacsim::Technique;

/** The four machines of the paper's Figure 16, in its order. */
inline constexpr Technique machines[] = {Technique::Baseline,
                                         Technique::Cae, Technique::Mta,
                                         Technique::Dac};

/** Lower-case machine name used in metric names ("baseline", "dac"). */
const char *machineKey(Technique t);

/** Workload scale of the paper sweeps (paper size). */
inline constexpr double paperScale = 1.0;
/** Workload scale of the service stream (fig16_speedup --quick). */
inline constexpr double quickScale = 0.25;

/** One (benchmark, machine, scale) run. */
struct Point
{
    std::string bench;
    Technique tech = Technique::Baseline;
    double scale = paperScale;
};

/** The 4 * |benches| points of a Figure 16 sweep, benchmark-major. */
std::vector<Point> sweepPoints(const std::vector<std::string> &benches,
                               double scale);

/** All 29 benchmark names in Table 2 order (compute first). */
std::vector<std::string> allBenchNames();

/** What a run must reproduce exactly: its RunStats digest and a hash
 * of its output checksums. */
struct Digest
{
    std::uint64_t stateHash = 0;
    std::uint64_t cycles = 0;
    std::uint64_t warpInsts = 0; ///< both streams (totalWarpInsts)
    std::uint64_t outputs = 0;   ///< FNV-1a over the output checksums

    bool operator==(const Digest &) const = default;
};

Digest digestOf(const RunOutcome &out);

/** Digests of every point, generated once from a known-good commit and
 * stored beside the benchmark (pinned_digests.tsv). */
class PinnedTable
{
  public:
    /** False with *error set when the file is missing or malformed. */
    bool load(const std::string &path, std::string *error);
    bool save(const std::string &path) const;

    void put(const Point &p, const Digest &d);
    const Digest *find(const Point &p) const;
    std::size_t size() const { return rows_.size(); }

  private:
    static std::string key(const Point &p);
    std::map<std::string, Digest> rows_;
};

/** One failed op: its index and why it failed. */
struct OpFailure
{
    std::size_t index;
    std::string why;
};

/**
 * Check a complete sweep (@p outs[i] is the run of @p points[i], every
 * machine of each benchmark present): each run must complete cleanly
 * and match its pinned digest, and each machine's output checksums
 * must equal the baseline's. At most one failure per op.
 */
std::vector<OpFailure> failedOps(const PinnedTable &pins,
                                 const std::vector<Point> &points,
                                 const std::vector<RunOutcome> &outs);

/** Fault-free RunOptions of a point (the defaults every figure uses). */
dacsim::RunOptions runOptions(const Point &p);

/**
 * runWorkload()'s fault-free path, replicated from outside the
 * program with a span around every call into a module:
 * workloads.prepare, compiler.decouple (analyzeControlFlow + decouple),
 * sim.init (the Gpu constructor) and one sim.launch per launch, each a
 * child of @p parent and tagged with the machine. Simulator errors are
 * returned in RunOutcome::error as runWorkload() would.
 */
RunOutcome tracedRun(const Point &p, Tracer &tr, std::uint64_t run,
                     long parent);

/**
 * The service workload's job stream for @p seed. The multiset is fixed:
 * for each of the 116 Figure 16 points at quickScale, 1 + hitsPerPoint
 * identical run requests (the first is the cold simulation, the rest
 * are cache hits, as when a sweep is re-run) and one predict request
 * at paperScale (never simulated, so always answered by the static
 * predictor). The seed only permutes the order. Ids are positions + 1.
 */
std::vector<dacsim::service::JobSpec> jobStream(std::uint64_t seed);

inline constexpr int hitsPerPoint = 7;

/** Index of a job's point in sweepPoints(all 29 benches), for
 * assigning every request of a point to the same client. */
std::size_t streamPointIndex(const dacsim::service::JobSpec &spec);

/** Deterministic Fisher-Yates permutation of [0, n) for @p seed. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/** Geometric mean (0 for an empty vector). */
double geomean(const std::vector<double> &v);

} // namespace perfbench

#endif // DACSIM_PERFBENCH_BENCH_H
