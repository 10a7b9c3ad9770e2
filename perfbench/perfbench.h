/**
 * @file
 * Internal interfaces of the perfbench program: its arguments, the
 * report every workload fills in, and the metric helpers the
 * workloads share.
 */

#ifndef DACSIM_PERFBENCH_PERFBENCH_H
#define DACSIM_PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench
{

/** Probe processes whose median start-up time is setup_s. */
inline constexpr int setupSamples = 41;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
    std::string digests = "perfbench/pinned_digests.tsv";
    std::string out = ".bench_build/perfbench-out";
    std::string writeDigests;
    /** Internal: run only the workload's set-up, then write one byte
     * to this fd (the parent times process start to that byte). */
    int probeFd = -1;
    std::string self; ///< argv[0], re-executed by set-up probes
};

/** CPU seconds of RUSAGE_SELF or RUSAGE_CHILDREN. */
double rusageCpuS(int who);
/** CPU seconds of this process (nanosecond clock, unlike getrusage's
 * tick-rounded figures). */
double processCpuS();
double secondsSince(std::int64_t t0);
/** The ratio a / b, 0 when b is 0. */
double ratio(double a, double b);
double sum(const std::vector<double> &v);

/** One timed run of the host-speed reference loop (see HostSpeed). */
struct RefSample
{
    double cpuS = 0, wallS = 0;
};

/** Run the reference loop once on this thread and time it. */
RefSample sampleReference();

/**
 * The host-speed reference: timings are scaled by how fast a fixed
 * loop, compiled into the benchmark and sharing no code with the
 * simulator, runs next to them.
 *
 * On a shared host the simulator's speed moves with what the other
 * tenants of the core and its caches do: the same sweep can take twice
 * as long in a busy stretch as in a quiet one. A latency-bound
 * loop barely notices, but a loop with eight independent dependency
 * chains keeps the core's execution ports as busy as the simulator
 * does and slows with it. So every timing is reported as it would read
 * on a host where the reference takes refNominalCpuS: the raw figure
 * times refNominalCpuS / the reference's mean time over the run. A
 * change to the simulator moves the scaled figures as it moves the raw
 * ones; a host slowing down moves both the raw figures and the
 * reference, and the scaled figures much less.
 *
 * The mean may be weighted: a sweep weighs the samples around each op
 * by the op's CPU time, so the reference is averaged over the same
 * stretches of time as the work it scales.
 */
class HostSpeed
{
  public:
    /** Take one sample with weight 1. */
    void sample() { add(sampleReference(), 1.0); }
    void add(const RefSample &r, double weight);

    /** Scale for CPU times: refNominalCpuS / mean reference CPU. */
    double cpuScale() const;
    /** Scale for wall times: refNominalCpuS / mean reference wall. */
    double wallScale() const;
    std::size_t samples() const { return n_; }
    /** Time the samples took: to take out of a timing that spans them. */
    double cpuTotalS() const { return cpuS_; }
    double wallTotalS() const { return wallS_; }

  private:
    std::size_t n_ = 0;
    double cpuS_ = 0, wallS_ = 0;             ///< unweighted sums
    double weight_ = 0, wCpuS_ = 0, wWallS_ = 0; ///< weighted sums
};

/** CPU seconds one reference run takes on a quiet core of the host
 * the bounds were set on (4-vCPU KVM guest, Xeon at 2.1 GHz). It only
 * fixes the unit of the scaled figures. */
inline constexpr double refNominalCpuS = 0.004;

/**
 * Pin the calling thread, and so every thread and process it starts
 * later, to the CPU it is running on, so that the reference samples
 * measure the CPU the timed work runs on. A note on stderr and no
 * pinning when the host refuses.
 */
void pinToCurrentCpu();

double peakRssMb();

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metrics and op counts of one benchmark run. */
class Report
{
  public:
    void e2e(std::string n, double v, std::string u)
    {
        e2e_.push_back({std::move(n), v, std::move(u)});
    }
    void layer(std::string n, double v, std::string u)
    {
        layer_.push_back({std::move(n), v, std::move(u)});
    }
    /** A tracing-off metric printed by name but kept out of the result
     * line: too jittery on a shared host to carry a bound. */
    void info(std::string n, double v, std::string u)
    {
        info_.push_back({std::move(n), v, std::move(u)});
    }

    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** One op failed; the first few reasons go to stderr. */
    void
    fail(const std::string &why)
    {
        if (++failed_ <= 20)
            std::fprintf(stderr, "perfbench: op failed: %s\n", why.c_str());
    }

    /** A harness invariant broke (not an op): the result is wrong. */
    void
    broken(const std::string &why)
    {
        correct_ = false;
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    }

    /** Print the metrics of @p trace's kind by name and unit, then the
     * result line: {"correct", "attempted", "failed", "metrics"}. */
    void print(int trace) const;

  private:
    std::vector<Metric> e2e_, layer_, info_;
    std::uint64_t attempted_ = 0, failed_ = 0;
    bool correct_ = true;
};

/** Percentile under the ten-beyond rule; a refusal on a metric the
 * workload must produce is a harness failure. */
double tail(Report &rep, const std::vector<double> &v, int pct,
            const char *what);

/** tailMean() under the same rule; a refusal is a harness failure. */
double tailMeanOf(Report &rep, const std::vector<double> &v, int pct,
                  const char *what);

/** Percentile of a per-layer series; 0 (and a note) when refused. */
double layerPct(const std::vector<double> &v, int pct, const char *what);

/** One checked run of a complete sweep. */
struct Op
{
    const Point *point;
    const RunOutcome *out;
};

/**
 * Work counts a host-only change must leave unchanged, and the
 * simulated outcomes next to the paper's numbers (simulated cycles; the
 * model is unvalidated against hardware). @p paper holds the paper's
 * value per model metric for this workload's benchmark set.
 */
void addSimulatedMetrics(Report &rep, const std::vector<Op> &ops,
                         const std::map<std::string, double> &paper);

/** Host CPU per module over one traced set of runs. */
struct LayerCpu
{
    std::map<std::string, double> launchS; ///< by machine key
    double initS = 0, prepareS = 0, decoupleS = 0;
};

LayerCpu layerCpu(const std::vector<Span> &spans);

/** sim.*, dac.host_cost_ratio, workloads.* and compiler.* metrics. */
void addLayerCpuMetrics(Report &rep, const LayerCpu &l,
                        const std::vector<Op> &ops);

/** Self time per layer, printed, and the nesting invariant checked. */
void printSelfTimes(Report &rep, const std::vector<Span> &spans);

/** Write the spans to <out>/spans-<workload>-seed<N>.json. */
void writeSpans(Report &rep, const Args &a, const std::vector<Span> &spans);

/** Append @p more to @p all, re-basing parent indices. */
void appendSpans(std::vector<Span> &all, std::vector<Span> more);

/**
 * setup_s samples: setupSamples fresh processes of this benchmark, each
 * timed from fork to the end of its workload's set-up (the
 * --probe-setup-fd mode). False when a probe fails.
 */
bool probeSetups(const Args &a, std::vector<double> *setup,
                 HostSpeed *speed);

/** In a probe process: tell the parent the set-up is done. */
bool signalReady(const Args &a);

/** Probe mode of the sweeps: everything a sweep does before its first
 * timed run, then signalReady(). */
bool sweepSetupOnly(const Args &a);

/** Probe mode of the service: start a daemon on a fresh state
 * directory until it accepts, then signalReady(). */
bool serviceSetupOnly(const Args &a);

/** The paper_fig16 workload. */
int runSweepWorkload(const Args &a);

/** The service_mixed workload. */
int runServiceWorkload(const Args &a);

} // namespace perfbench

#endif // DACSIM_PERFBENCH_PERFBENCH_H
