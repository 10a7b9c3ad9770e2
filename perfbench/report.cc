#include "perfbench.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "stats.h"

namespace perfbench
{

using namespace dacsim;

double
rusageCpuS(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace
{

/** The reference loop: eight independent xorshift chains. The result
 * goes to a volatile so the loop cannot be dropped. */
volatile std::uint64_t refSink;

void
referenceLoop()
{
    std::uint64_t x[8];
    for (int k = 0; k < 8; ++k)
        x[k] = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(k + 1);
    for (int i = 0; i < 1000000; ++i)
        for (std::uint64_t &v : x) {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
        }
    std::uint64_t s = 0;
    for (std::uint64_t v : x)
        s += v;
    refSink = s;
}

} // namespace

RefSample
sampleReference()
{
    const std::int64_t c0 = threadCpuNs();
    const std::int64_t t0 = wallNs();
    referenceLoop();
    RefSample r;
    r.wallS = secondsSince(t0);
    r.cpuS = 1e-9 * static_cast<double>(threadCpuNs() - c0);
    return r;
}

void
HostSpeed::add(const RefSample &r, double weight)
{
    ++n_;
    cpuS_ += r.cpuS;
    wallS_ += r.wallS;
    weight_ += weight;
    wCpuS_ += weight * r.cpuS;
    wWallS_ += weight * r.wallS;
}

double
HostSpeed::cpuScale() const
{
    return ratio(refNominalCpuS * weight_, wCpuS_);
}

double
HostSpeed::wallScale() const
{
    return ratio(refNominalCpuS * weight_, wWallS_);
}

void
pinToCurrentCpu()
{
    const int cpu = ::sched_getcpu();
    cpu_set_t set;
    CPU_ZERO(&set);
    if (cpu >= 0)
        CPU_SET(cpu, &set);
    if (cpu < 0 || ::sched_setaffinity(0, sizeof set, &set) != 0)
        std::fprintf(stderr, "perfbench: cannot pin to a CPU; running "
                             "unpinned\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsSince(std::int64_t t0)
{
    return 1e-9 * static_cast<double>(wallNs() - t0);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

namespace
{

/** Time from forking a fresh benchmark process to the end of its
 * set-up (negative on failure). */
double
probeSetup(const Args &a)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1.0;
    const std::string fdArg = std::to_string(fds[1]);
    const std::string seedArg = std::to_string(a.seed);
    std::fflush(stdout);
    std::fflush(stderr);
    const std::int64_t t0 = wallNs();
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const char *argv[] = {a.self.c_str(),    "--workload",
                              a.workload.c_str(), "--seed",
                              seedArg.c_str(),   "--digests",
                              a.digests.c_str(), "--out",
                              a.out.c_str(),     "--probe-setup-fd",
                              fdArg.c_str(),     nullptr};
        ::execv(a.self.c_str(), const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    char c = 0;
    const ssize_t got = pid > 0 ? ::read(fds[0], &c, 1) : -1;
    const double s = secondsSince(t0);
    ::close(fds[0]);
    int status = 0;
    if (pid > 0)
        ::waitpid(pid, &status, 0);
    const bool ok = got == 1 && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    return ok ? s : -1.0;
}

} // namespace

bool
probeSetups(const Args &a, std::vector<double> *setup, HostSpeed *speed)
{
    for (int i = 0; i < setupSamples; ++i) {
        speed->sample();
        const double s = probeSetup(a);
        if (s < 0) {
            std::fprintf(stderr, "perfbench: set-up probe failed\n");
            return false;
        }
        setup->push_back(s);
    }
    return true;
}

bool
signalReady(const Args &a)
{
    const char c = 1;
    return ::write(a.probeFd, &c, 1) == 1;
}

void
Report::print(int trace) const
{
    const std::vector<Metric> &ms = trace != 0 ? layer_ : e2e_;
    std::printf("\n%s metrics:\n", trace != 0 ? "per-layer (traced run)"
                                              : "end-to-end (tracing off)");
    for (const Metric &m : ms)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (trace == 0)
        for (const Metric &m : info_)
            std::printf("  %-34s %16.6f %s (not in the result line)\n",
                        m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  %-34s %16llu op\n  %-34s %16llu op\n", "ops_total",
                static_cast<unsigned long long>(attempted_), "ops_failed",
                static_cast<unsigned long long>(failed_));

    bool ok = correct_ && failed_ == 0 && attempted_ > 0;
    std::string body;
    for (const Metric &m : ms) {
        double v = m.value;
        if (!std::isfinite(v)) {
            ok = false;
            v = 0.0;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!body.empty())
            body += ", ";
        body += "\"" + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), body.c_str());
    std::fflush(stdout);
}

double
tail(Report &rep, const std::vector<double> &v, int pct, const char *what)
{
    double x = 0.0;
    if (!percentile(v, pct, &x))
        rep.broken(std::string(what) + ": p" + std::to_string(pct) +
                   " refused with " + std::to_string(v.size()) +
                   " samples");
    return x;
}

double
tailMeanOf(Report &rep, const std::vector<double> &v, int pct,
           const char *what)
{
    double x = 0.0;
    if (!tailMean(v, pct, &x))
        rep.broken(std::string(what) + ": mean beyond p" +
                   std::to_string(pct) + " refused with " +
                   std::to_string(v.size()) + " samples");
    return x;
}

double
layerPct(const std::vector<double> &v, int pct, const char *what)
{
    double x = 0.0;
    if (!percentile(v, pct, &x))
        std::printf("  note: %s p%d not reported: %zu samples\n", what, pct,
                    v.size());
    return x;
}

// ----- simulated-outcome and work-count metrics -------------------------

namespace
{

/** Outcomes of one complete sweep, indexed by benchmark and machine. */
std::map<std::string, std::map<Technique, const RunOutcome *>>
byBench(const std::vector<Op> &ops)
{
    std::map<std::string, std::map<Technique, const RunOutcome *>> m;
    for (const Op &o : ops)
        m[o.point->bench][o.point->tech] = o.out;
    return m;
}

} // namespace

/**
 * Work counts a host-only change must leave unchanged, and the
 * simulated outcomes next to the paper's numbers (simulated cycles; the
 * model is unvalidated against hardware). @p paper holds the paper's
 * value per model metric for this workload's benchmark set.
 */
void
addSimulatedMetrics(Report &rep, const std::vector<Op> &ops,
                    const std::map<std::string, double> &paper)
{
    RunStats sum;
    std::uint64_t l1 = 0, l1All = 0, l2 = 0, l2All = 0, pfUsed = 0,
                  pfIssued = 0;
    std::vector<double> affShare;
    for (const Op &o : ops) {
        const RunStats &s = o.out->stats;
        sum.add(s);
        l1 += s.l1Hits;
        l1All += s.l1Hits + s.l1Misses;
        l2 += s.l2Hits;
        l2All += s.l2Hits + s.l2Misses;
        if (o.point->tech == Technique::Mta) {
            pfUsed += s.prefetchesIssued - s.prefetchUnused;
            pfIssued += s.prefetchesIssued;
        }
        if (o.point->tech == Technique::Dac && s.loadRequests > 0)
            affShare.push_back(static_cast<double>(s.affineLoadRequests) /
                               static_cast<double>(s.loadRequests));
    }
    double share = 0.0;
    for (double x : affShare)
        share += x;
    share = ratio(share, static_cast<double>(affShare.size()));

    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    rep.layer("sim.cycles", count(sum.cycles), "count");
    rep.layer("sim.warp_insts", count(sum.totalWarpInsts()), "count");
    rep.layer("sim.lane_ops", count(sum.laneOps), "count");
    rep.layer("dac.affine_warp_insts", count(sum.affineWarpInsts), "count");
    rep.layer("dac.expansion_alu_ops", count(sum.expansionAluOps), "count");
    rep.layer("dac.affine_load_share", share, "ratio");
    rep.layer("dac.deq_stall_cycles", count(sum.deqStallCycles), "count");
    rep.layer("mem.load_requests", count(sum.loadRequests), "count");
    rep.layer("mem.l1_hit_ratio", ratio(count(l1), count(l1All)), "ratio");
    rep.layer("mem.l2_hit_ratio", ratio(count(l2), count(l2All)), "ratio");
    rep.layer("mem.dram_accesses", count(sum.dramAccesses), "count");
    // Share of MTA prefetches referenced before eviction.
    rep.layer("baselines.mta_prefetch_hit_ratio",
              ratio(count(pfUsed), count(pfIssued)), "ratio");
    rep.layer("baselines.cae_affine_insts", count(sum.caeAffineInsts),
              "count");

    std::map<Technique, std::vector<double>> speed;
    std::vector<double> winst;
    for (const auto &[bench, m] : byBench(ops)) {
        auto b = m.find(Technique::Baseline);
        if (b == m.end())
            continue;
        for (const auto &[t, o] : m)
            if (t != Technique::Baseline && o->stats.cycles > 0)
                speed[t].push_back(count(b->second->stats.cycles) /
                                   count(o->stats.cycles));
        auto d = m.find(Technique::Dac);
        if (d != m.end() && b->second->stats.warpInsts > 0)
            winst.push_back(count(d->second->stats.totalWarpInsts()) /
                            count(b->second->stats.warpInsts));
    }
    const std::vector<Metric> model = {
        {"model.dac_speedup_gm", geomean(speed[Technique::Dac]), "x"},
        {"model.cae_speedup_gm", geomean(speed[Technique::Cae]), "x"},
        {"model.mta_speedup_gm", geomean(speed[Technique::Mta]), "x"},
        {"model.winst_reduction", 1.0 - geomean(winst), "ratio"},
    };
    std::printf("\nsimulated outcomes (simulated cycles of an unvalidated "
                "model, not hardware; not gated):\n");
    for (const Metric &m : model) {
        rep.layer(m.name, m.value, m.unit);
        auto p = paper.find(m.name);
        if (p != paper.end())
            std::printf("  %-26s %8.4f  paper %.4f\n", m.name.c_str(),
                        m.value, p->second);
        else
            std::printf("  %-26s %8.4f  paper: not reported for this set\n",
                        m.name.c_str(), m.value);
    }
    auto p = paper.find("dac.affine_load_share");
    std::printf("  %-26s %8.4f  paper %.4f (memory-intensive)\n",
                "dac.affine_load_share", share, p->second);
}

// ----- per-layer host time ----------------------------------------------

LayerCpu
layerCpu(const std::vector<Span> &spans)
{
    LayerCpu l;
    for (const Span &s : spans) {
        const double c = 1e-9 * static_cast<double>(s.cpuNs);
        if (s.name == "sim.launch")
            l.launchS[s.tag] += c;
        else if (s.name == "sim.init")
            l.initS += c;
        else if (s.name == "workloads.prepare")
            l.prepareS += c;
        else if (s.name == "compiler.decouple")
            l.decoupleS += c;
    }
    return l;
}

void
addLayerCpuMetrics(Report &rep, const LayerCpu &l, const std::vector<Op> &ops)
{
    std::map<std::string, double> winsts, cycles;
    for (const Op &o : ops) {
        winsts[machineKey(o.point->tech)] +=
            static_cast<double>(o.out->stats.totalWarpInsts());
        cycles[machineKey(o.point->tech)] +=
            static_cast<double>(o.out->stats.cycles);
    }
    std::map<std::string, double> nsPerWinst;
    for (Technique t : machines) {
        const std::string k = machineKey(t);
        auto it = l.launchS.find(k);
        const double cpu = it == l.launchS.end() ? 0.0 : it->second;
        nsPerWinst[k] = 1e9 * ratio(cpu, winsts[k]);
        rep.layer("sim.ns_per_winst." + k, nsPerWinst[k], "ns");
        rep.layer("sim.launch_cpu_s." + k, cpu, "s");
        rep.layer("sim.ns_per_cycle." + k, 1e9 * ratio(cpu, cycles[k]), "ns");
    }
    rep.layer("sim.init_cpu_s", l.initS, "s");
    rep.layer("dac.host_cost_ratio",
              ratio(nsPerWinst["dac"], nsPerWinst["baseline"]), "ratio");
    rep.layer("workloads.prepare_cpu_s", l.prepareS, "s");
    rep.layer("compiler.decouple_cpu_s", l.decoupleS, "s");
}

/** Self time per layer, printed, and the nesting invariant checked. */
void
printSelfTimes(Report &rep, const std::vector<Span> &spans)
{
    if (!wellNested(spans))
        rep.broken("spans are not well nested: a layer's self time "
                   "exceeds its parent span");
    std::int64_t roots = 0;
    for (const Span &s : spans)
        if (s.parent < 0)
            roots += s.durNs();
    std::printf("\nself time per layer (wall, traced repetitions):\n");
    for (const auto &[name, ns] : selfTimeByName(spans))
        std::printf("  %-24s %10.4f s %6.2f%%\n", name.c_str(),
                    1e-9 * static_cast<double>(ns),
                    100.0 * ratio(static_cast<double>(ns),
                                  static_cast<double>(roots)));
}

void
writeSpans(Report &rep, const Args &a, const std::vector<Span> &spans)
{
    const std::string path = a.out + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    if (!writeSpansJson(spans, path))
        rep.broken("cannot write " + path);
    else
        std::printf("spans: %zu written to %s\n", spans.size(),
                    path.c_str());
}

/** Append @p more to @p all, re-basing parent indices. */
void
appendSpans(std::vector<Span> &all, std::vector<Span> more)
{
    const long base = static_cast<long>(all.size());
    for (Span &s : more) {
        if (s.parent >= 0)
            s.parent += base;
        all.push_back(std::move(s));
    }
}

} // namespace perfbench
