/**
 * @file
 * The paper_fig16 workload: all 116 points of Figure 16 (29 kernels on
 * the four machines) at paper scale, serial, in process.
 */

#include <algorithm>

#include <malloc.h>

#include "perfbench.h"
#include "stats.h"

namespace perfbench
{

using namespace dacsim;

namespace
{

/** Service metrics of a workload that does not exercise the service:
 * reported as 0 so every workload prints the same metric set. */
void
addNoServiceMetrics(Report &rep)
{
    for (const char *n :
         {"service.latency_ms_p50.cache", "service.latency_ms_p50.sim",
          "service.latency_ms_p90.sim", "service.cold_overhead_ms",
          "service.latency_ms_p50.pred"})
        rep.layer(n, 0.0, "ms");
    rep.layer("service.outcome_codec_us", 0.0, "us");
    rep.layer("analysis.predict_us", 0.0, "us");
    for (const char *n : {"service.sims", "service.dedup",
                          "service.retries", "service.overloaded"})
        rep.layer(n, 0.0, "count");
    rep.layer("service.cache_hit_ratio", 0.0, "ratio");
}

struct SweepSetup
{
    PinnedTable pins;
    std::vector<Point> points;
};

/** Everything a sweep does before its first timed run. */
bool
setupSweep(const Args &a, SweepSetup *su)
{
    std::string err;
    if (!su->pins.load(a.digests, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return false;
    }
    su->points = sweepPoints(allBenchNames(), paperScale);
    return true;
}

struct Pass
{
    std::vector<double> opCpuS, opWallMs; ///< by point index
    std::vector<RunOutcome> outs;         ///< by point index
    std::vector<char> ran;                ///< by point index
    /** Mean of the reference samples just before and after the op,
     * by point index. */
    std::vector<RefSample> ref;
    std::vector<Span> spans;              ///< traced passes only
};

/**
 * One sweep, benchmark by benchmark in an order permuted from @p seed,
 * the four machines of each in a seeded order too, with a reference
 * sample before every op and after the last; traced when @p traced.
 * Once @p deadline (wallNs, 0 for none) has passed the pass stops
 * before its next benchmark, so it may cover only some of them: ran[i]
 * tells which ops ran.
 */
Pass
runPass(const SweepSetup &su, std::uint64_t seed, bool traced,
        std::int64_t deadline, std::uint64_t *runId)
{
    const std::size_t n = su.points.size();
    Pass ps;
    ps.outs.resize(n);
    ps.opCpuS.resize(n);
    ps.opWallMs.resize(n);
    ps.ran.assign(n, 0);
    ps.ref.resize(n);
    RefSample before;
    std::size_t last = n; // the op that ran last, n for none yet
    // Close the bracket of the op that ran last with sample @p r.
    auto bracket = [&](const RefSample &r) {
        if (last < n) {
            ps.ref[last].cpuS = 0.5 * (before.cpuS + r.cpuS);
            ps.ref[last].wallS = 0.5 * (before.wallS + r.wallS);
        }
        before = r;
    };
    Tracer tr;
    for (std::size_t b : permutation(n / 4, seed)) {
        if (deadline != 0 && wallNs() >= deadline)
            break;
        for (std::size_t m : permutation(4, seed * 31 + b)) {
            const std::size_t i = 4 * b + m; // sweepPoints is bench-major
            const Point &p = su.points[i];
            // Start every op from a trimmed heap, as in a fresh
            // process, so its memory and time do not depend on the
            // order of the ops before it.
            ::malloc_trim(0);
            bracket(sampleReference());
            const double c0 = processCpuS();
            const std::int64_t t0 = wallNs();
            if (traced) {
                Scope op(&tr, "harness.op", *runId, -1, machineKey(p.tech));
                ps.outs[i] = tracedRun(p, tr, *runId, op.index());
            } else {
                ps.outs[i] = runWorkload(p.bench, runOptions(p));
            }
            ps.opWallMs[i] = 1e-6 * static_cast<double>(wallNs() - t0);
            ps.opCpuS[i] = processCpuS() - c0;
            ps.ran[i] = 1;
            last = i;
            ++*runId;
        }
    }
    bracket(sampleReference());
    if (traced)
        ps.spans = tr.spans();
    return ps;
}

/** Per op, the median over the @p passes that ran it of @p field.
 * Interleaved repetitions of each op, combined op by op, damp the
 * host's speed swings better than whole-sweep totals do. */
std::vector<double>
perOpMedian(const std::vector<Pass> &passes,
            std::vector<double> Pass::*field)
{
    std::vector<double> med;
    for (std::size_t i = 0; i < (passes.front().*field).size(); ++i) {
        std::vector<double> v;
        for (const Pass &ps : passes)
            if (ps.ran[i])
                v.push_back((ps.*field)[i]);
        med.push_back(median(v));
    }
    return med;
}

/** The reference samples around every op of @p passes, each pair
 * weighted by its op's CPU time. */
HostSpeed
speedOf(const std::vector<Pass> &passes)
{
    HostSpeed speed;
    for (const Pass &ps : passes)
        for (std::size_t i = 0; i < ps.ran.size(); ++i)
            if (ps.ran[i])
                speed.add(ps.ref[i], ps.opCpuS[i]);
    return speed;
}

std::vector<Op>
opsOf(const SweepSetup &su, const Pass &ps)
{
    std::vector<Op> ops;
    for (std::size_t i = 0; i < su.points.size(); ++i)
        ops.push_back({&su.points[i], &ps.outs[i]});
    return ops;
}

/** Every op of a pass that ran: pinned digest, and machines agree on
 * outputs (a pass runs all four machines of a benchmark or none). */
void
checkPass(Report &rep, const SweepSetup &su, const Pass &ps)
{
    std::vector<Point> points;
    std::vector<RunOutcome> outs;
    for (std::size_t i = 0; i < su.points.size(); ++i)
        if (ps.ran[i]) {
            points.push_back(su.points[i]);
            outs.push_back(ps.outs[i]);
        }
    rep.attempt(points.size());
    for (const OpFailure &f : failedOps(su.pins, points, outs))
        rep.fail(f.why);
}

} // namespace

bool
sweepSetupOnly(const Args &a)
{
    SweepSetup su;
    return setupSweep(a, &su) &&
           signalReady(a);
}

int
runSweepWorkload(const Args &a)
{
    Report rep;
    pinToCurrentCpu(); // the ops and the reference samples share a CPU
    std::vector<double> setup;
    HostSpeed setupSpeed;
    if (!probeSetups(a, &setup, &setupSpeed))
        return 1;
    SweepSetup su;
    if (!setupSweep(a, &su))
        return 1;

    std::printf("workload %s: %zu ops per sweep (%zu kernels x 4 machines) "
                "at scale %.2f, serial, seed %llu\n",
                a.workload.c_str(), su.points.size(), su.points.size() / 4,
                paperScale, static_cast<unsigned long long>(a.seed));

    // Untraced sweeps (alternating with traced ones under --trace 1),
    // each in a fresh seeded order, until the time is up. The first
    // untraced sweep and every traced one run whole; the others stop
    // between benchmarks at the deadline.
    std::vector<Pass> untraced, traced;
    std::uint64_t runId = 1;
    const std::int64_t deadline =
        wallNs() + 1000000000ll * static_cast<std::int64_t>(a.seconds);
    std::uint64_t passNo = 0;
    do {
        const bool tracedPass = a.trace != 0 && passNo % 2 == 1;
        const bool whole = tracedPass || untraced.empty();
        std::vector<Pass> &dst = tracedPass ? traced : untraced;
        dst.push_back(runPass(su, a.seed * 1000003 + passNo++, tracedPass,
                              whole ? 0 : deadline, &runId));
        checkPass(rep, su, dst.back());
        if (tracedPass) {
            // The traced replica must reproduce runWorkload exactly.
            const Pass &u = untraced.front(), &t = traced.back();
            for (std::size_t i = 0; i < su.points.size(); ++i)
                if (!(t.outs[i].stats == u.outs[i].stats) ||
                    t.outs[i].checksums != u.outs[i].checksums)
                    rep.fail(su.points[i].bench + "/" +
                             machineKey(su.points[i].tech) +
                             ": traced run differs from runWorkload");
        }
        const Pass &ps = dst.back();
        std::printf("pass %llu (%s): %lld ops, %.3f CPU-s\n",
                    static_cast<unsigned long long>(passNo),
                    tracedPass ? "traced" : "untraced",
                    static_cast<long long>(
                        std::count(ps.ran.begin(), ps.ran.end(), 1)),
                    sum(ps.opCpuS));
    } while (wallNs() < deadline || (a.trace != 0 && traced.empty()));

    // The typical sweep: every op at its median over the repetitions,
    // scaled to the reference host speed.
    const std::vector<double> cpu = perOpMedian(untraced, &Pass::opCpuS);
    const std::vector<double> wall = perOpMedian(untraced, &Pass::opWallMs);
    const HostSpeed speed = speedOf(untraced);
    const double cs = speed.cpuScale(), ws = speed.wallScale();
    std::vector<double> scaledWall;
    for (double ms : wall)
        scaledWall.push_back(ws * ms);
    rep.e2e("setup_s", setupSpeed.wallScale() * median(setup), "s");
    rep.e2e("sweep_cpu_s", cs * sum(cpu), "s");
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    rep.e2e("jobs_per_s",
            static_cast<double>(wall.size()) / (1e-3 * sum(scaledWall)),
            "1/s");
    rep.info("job_p50_ms", tail(rep, scaledWall, 50, "job_p50_ms"), "ms");
    rep.info("job_p90_ms", tail(rep, scaledWall, 90, "job_p90_ms"), "ms");
    rep.e2e("job_tail_ms", tailMeanOf(rep, scaledWall, 90, "job_tail_ms"),
            "ms");
    rep.info("raw_setup_s", median(setup), "s");
    rep.info("raw_sweep_cpu_s", sum(cpu), "s");
    rep.info("host_cpu_scale", cs, "x");
    rep.info("host_wall_scale", ws, "x");
    std::printf("%zu untraced sweeps, each op at its median; job_tail_ms "
                "is the mean of the ops beyond the p90 of %zu (a p99 would "
                "need 1000); timings scaled by the reference samples "
                "around %zu ops\n",
                untraced.size(), su.points.size(), speed.samples());

    // The paper's values over all 29 benchmarks (EXPERIMENTS.md).
    const std::map<std::string, double> paper = {
        {"model.dac_speedup_gm", 1.407},
        {"model.winst_reduction", 0.26},
        {"dac.affine_load_share", 0.798}};
    if (a.trace != 0) {
        std::vector<Span> all;
        for (Pass &ps : traced)
            appendSpans(all, ps.spans);
        const std::vector<Op> ops = opsOf(su, traced.front());
        addLayerCpuMetrics(rep, layerCpu(traced.front().spans), ops);
        addNoServiceMetrics(rep);
        addSimulatedMetrics(rep, ops, paper);
        rep.layer("harness.trace_overhead",
                  ratio(speedOf(traced).cpuScale() *
                            sum(perOpMedian(traced, &Pass::opCpuS)),
                        cs * sum(cpu)) -
                      1.0,
                  "ratio");
        printSelfTimes(rep, all);
        writeSpans(rep, a, all);
    } else {
        Report scratch; // simulated outcomes printed, not reported
        addSimulatedMetrics(scratch, opsOf(su, untraced.front()), paper);
    }
    rep.print(a.trace);
    return 0;
}

} // namespace perfbench
