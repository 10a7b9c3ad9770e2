/**
 * @file
 * The service_mixed workload: a dacsimd daemon on a fresh state
 * directory, in the same process as a closed-loop sweep client.
 * Each repetition, and the direct runs its results are checked
 * against, runs in a forked copy of the benchmark.
 */

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "analysis/predict.h"
#include "perfbench.h"
#include "harness/journal.h"
#include "service/client.h"
#include "service/daemon.h"
#include "stats.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace dacsim;
namespace fs = std::filesystem;

namespace
{

/** Threads for the direct runs, which are outside any timed window. */
int
directRunThreads()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(2, hw / 2));
}

bool
canConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const bool ok = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) == 0;
    ::close(fd);
    return ok;
}

/** A daemon on a fresh state directory, serving from its own thread. */
class LiveDaemon
{
  public:
    explicit LiveDaemon(const std::string &base)
        : dir_(base), sock_(base + ".sock")
    {
        fs::remove_all(dir_);
        service::DaemonOptions opt;
        opt.socketPath = sock_;
        opt.dir = dir_;
        // One worker serving one closed-loop client, the whole
        // repetition on the one CPU the benchmark is pinned to, so the
        // client's reference samples run on the CPU whose speed they
        // scale. With two of each spread over a 4-vCPU host and the
        // samples taken between repetitions, the service's timings
        // spread about four times as much between runs.
        opt.workers = 1;
        daemon_ = std::make_unique<service::Daemon>(opt);
        std::string err;
        if (!daemon_->start(&err)) {
            std::fprintf(stderr, "perfbench: daemon start: %s\n",
                         err.c_str());
            return;
        }
        server_ = std::thread([this] { daemon_->serve(); });
        while (!canConnect(sock_))
            std::this_thread::yield();
        ok_ = true;
    }
    ~LiveDaemon()
    {
        if (server_.joinable()) {
            daemon_->requestStop();
            server_.join();
        }
        daemon_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::remove(sock_, ec);
    }
    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

    bool ok() const { return ok_; }
    const std::string &socket() const { return sock_; }
    const service::DaemonCounters &counters() const
    {
        return daemon_->counters();
    }

  private:
    std::string dir_, sock_;
    std::unique_ptr<service::Daemon> daemon_;
    std::thread server_;
    bool ok_ = false;
};

/** Fields a child process sends back to the benchmark: fixed-width
 * numbers and length-prefixed strings, read back in the same order. */
class Wire
{
  public:
    void
    putU64(std::uint64_t v)
    {
        buf_.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    putF64(double v)
    {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof b);
        putU64(b);
    }
    void
    putStr(const std::string &s)
    {
        putU64(s.size());
        buf_ += s;
    }

    std::uint64_t
    getU64()
    {
        std::uint64_t v = 0;
        if (pos_ + sizeof v > buf_.size()) {
            ok_ = false;
            return 0;
        }
        std::memcpy(&v, buf_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }
    double
    getF64()
    {
        const std::uint64_t b = getU64();
        double v = 0;
        std::memcpy(&v, &b, sizeof v);
        return v;
    }
    std::string
    getStr()
    {
        const std::uint64_t n = getU64();
        if (!ok_ || n > buf_.size() - pos_) {
            ok_ = false;
            return {};
        }
        std::string s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    /** Every read so far was in bounds and nothing is left over. */
    bool done() const { return ok_ && pos_ == buf_.size(); }
    std::string &bytes() { return buf_; }

  private:
    std::string buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

void
putSpans(Wire &w, const std::vector<Span> &spans)
{
    w.putU64(spans.size());
    for (const Span &s : spans) {
        w.putStr(s.name);
        w.putU64(static_cast<std::uint64_t>(s.startNs));
        w.putU64(static_cast<std::uint64_t>(s.endNs));
        w.putU64(static_cast<std::uint64_t>(s.cpuNs));
        w.putU64(static_cast<std::uint64_t>(s.parent));
        w.putU64(s.run);
        w.putStr(s.tag);
    }
}

std::vector<Span>
getSpans(Wire &w)
{
    std::vector<Span> spans(w.getU64());
    for (Span &s : spans) {
        s.name = w.getStr();
        s.startNs = static_cast<std::int64_t>(w.getU64());
        s.endNs = static_cast<std::int64_t>(w.getU64());
        s.cpuNs = static_cast<std::int64_t>(w.getU64());
        s.parent = static_cast<long>(w.getU64());
        s.run = w.getU64();
        s.tag = w.getStr();
    }
    return spans;
}

/**
 * Run @p fn in a forked child and read back what it put in its Wire.
 * Each repetition and the direct runs get a fresh copy of this
 * process, so nothing one of them allocates or leaves running reaches
 * the next measurement, and @p ru holds the child's own peak RSS and
 * CPU (its reaped worker processes included). Call only while this
 * process has a single thread. False when the child fails.
 */
bool
inChild(const std::function<bool(Wire &)> &fn, Wire *out, rusage *ru)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return false;
    std::fflush(stdout); // or the child would print it a second time
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        Wire w;
        bool ok = false;
        try {
            ok = fn(w);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
        }
        const std::string &b = w.bytes();
        for (std::size_t off = 0; ok && off < b.size();) {
            const ssize_t n = ::write(fds[1], b.data() + off, b.size() - off);
            ok = n > 0;
            off += ok ? static_cast<std::size_t>(n) : 0;
        }
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        return false;
    }
    char buf[65536];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        out->bytes().append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (::wait4(pid, &status, 0, ru) != pid)
        return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** What every job must return, from direct runs of every point. */
struct Truth
{
    std::vector<Point> points;           ///< all 116 at quickScale
    std::vector<RunOutcome> outs;        ///< by point (no hash chains)
    std::vector<std::string> runEnc;     ///< encodeOutcome, by point
    std::vector<std::string> predictEnc; ///< expected estimate, by point
    std::vector<bool> ok;                ///< the direct run is right
    std::vector<double> cpuMs;           ///< traced direct-run CPU
    std::vector<double> predictUs;       ///< predictKernel host time
    std::vector<Span> spans;             ///< traced direct runs only
};

/**
 * Child side: direct runs of every point (runWorkload, or the traced
 * replica when @p traced) checked against the pinned digests, and the
 * static predictor's answer for every predict request, exactly as the
 * daemon builds it.
 */
bool
putDirectRuns(const Args &a, bool traced, Wire &w)
{
    PinnedTable pins;
    std::string err;
    if (!pins.load(a.digests, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return false;
    }
    const std::vector<std::string> all = allBenchNames();
    const std::vector<Point> points = sweepPoints(all, quickScale);
    const std::size_t n = points.size();
    std::vector<RunOutcome> outs(n);
    std::vector<double> cpuMs(n), predictUs(all.size());
    std::vector<std::string> predictEnc(n);
    Tracer tr;
    const int par = directRunThreads();
    std::vector<std::thread> th;
    for (int t = 0; t < par; ++t) {
        th.emplace_back([&, t] {
            const auto step = static_cast<std::size_t>(par);
            for (std::size_t i = static_cast<std::size_t>(t); i < n;
                 i += step) {
                const Point &p = points[i];
                const std::int64_t c0 = threadCpuNs();
                if (traced) {
                    Scope op(&tr, "harness.op", i, -1, machineKey(p.tech));
                    outs[i] = tracedRun(p, tr, i, op.index());
                } else {
                    outs[i] = runWorkload(p.bench, runOptions(p));
                }
                cpuMs[i] = 1e-6 * static_cast<double>(threadCpuNs() - c0);
            }
            for (std::size_t b = static_cast<std::size_t>(t); b < all.size();
                 b += step) {
                const RunOptions defaults;
                GpuMemory gmem;
                const PreparedWorkload prep =
                    findWorkload(all[b]).prepare(gmem, paperScale);
                const std::vector<PredictLaunch> launches =
                    predictLaunches(prep);
                Scope sp(traced ? &tr : nullptr, "analysis.predict", b, -1);
                const std::int64_t c0 = threadCpuNs();
                const PredictReport pr = predictKernel(
                    prep.kernel, launches, defaults.gpu, defaults.dac);
                predictUs[b] = 1e-3 * static_cast<double>(threadCpuNs() - c0);
                for (Technique tech : machines) {
                    RunOutcome o;
                    const TechPredict &tp =
                        tech == Technique::Dac ? pr.dac : pr.base;
                    o.stats.cycles =
                        static_cast<std::uint64_t>(tp.estimateCycles);
                    o.anyDecoupled = tech == Technique::Dac &&
                                     pr.predictedAnyDecoupled;
                    predictEnc[b * 4 + static_cast<std::size_t>(tech)] =
                        encodeOutcome(o);
                }
            }
        });
    }
    for (std::thread &x : th)
        x.join();

    std::vector<bool> ok(n, true);
    for (const OpFailure &f : failedOps(pins, points, outs)) {
        ok[f.index] = false; // every job of this point will fail
        std::fprintf(stderr, "perfbench: direct run %s\n", f.why.c_str());
    }
    for (std::size_t i = 0; i < n; ++i) {
        w.putStr(encodeOutcome(outs[i]));
        w.putStr(predictEnc[i]);
        w.putU64(ok[i] ? 1 : 0);
        w.putF64(cpuMs[i]);
    }
    for (double us : predictUs)
        w.putF64(us);
    putSpans(w, traced ? tr.spans() : std::vector<Span>{});
    return true;
}

bool
getTruth(Wire &w, Truth *t)
{
    t->points = sweepPoints(allBenchNames(), quickScale);
    const std::size_t n = t->points.size();
    t->outs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        t->runEnc.push_back(w.getStr());
        t->predictEnc.push_back(w.getStr());
        t->ok.push_back(w.getU64() != 0);
        t->cpuMs.push_back(w.getF64());
        if (!decodeOutcome(t->runEnc.back(), &t->outs[i]))
            return false;
    }
    t->predictUs.resize(n / 4);
    for (double &us : t->predictUs)
        us = w.getF64();
    t->spans = getSpans(w);
    return w.done();
}

/** Source of each job's result; failed jobs are marked apart. */
constexpr std::uint64_t failedJob = 3;

/** One repetition, as measured in its own process. */
struct Rep
{
    double cpuS = 0, wallS = 0, rssMb = 0;
    double cpuScale = 0, wallScale = 0;  ///< HostSpeed over the stream
    std::vector<double> latMs;           ///< by stream position
    std::vector<std::uint64_t> source;   ///< ResultSource, or failedJob
    std::uint64_t jobs = 0, sims = 0, hits = 0, dedup = 0, retries = 0,
                  overloaded = 0;
    std::uint64_t failed = 0;            ///< jobs that failed a check
    std::vector<std::string> reasons;    ///< why (the first few)
    std::vector<double> codecUs;         ///< traced repetitions only
    bool codecOk = true;
    std::vector<Span> spans;             ///< traced repetitions only
    std::vector<std::size_t> point;      ///< streamPointIndex by position
};

/** Why job @p i's result is wrong ("" when it is right). */
std::string
checkJob(const service::JobSpec &spec, const service::JobResult &rs,
         const std::string &transportError, const Truth &truth)
{
    const std::size_t pi = streamPointIndex(spec);
    const std::string what = "job " + std::to_string(spec.id) + " (" +
                             spec.bench + "/" + machineKey(spec.tech) + " " +
                             service::jobKindName(spec.kind) + ")";
    if (!transportError.empty())
        return what + ": " + transportError;
    if (!rs.ok())
        return what + ": status " + service::jobStatusName(rs.status) + " " +
               rs.errorJson;
    if (spec.kind == service::JobKind::Predict) {
        if (rs.source != service::ResultSource::Predicted ||
            encodeOutcome(rs.outcome) != truth.predictEnc[pi])
            return what + ": estimate differs from predictKernel";
        return "";
    }
    if (!truth.ok[pi])
        return what + ": the direct run itself is wrong";
    if (encodeOutcome(rs.outcome) != truth.runEnc[pi])
        return what + ": outcome differs from the direct run";
    return "";
}

/** Encode/decode round trips of one result through the service codec;
 * false when one does not reproduce its input. */
bool
codecRoundTrip(const service::JobResult &rs)
{
    const std::string wire = service::encodeResult(rs);
    service::JobResult back;
    const bool okR = service::decodeResult(wire, &back);
    const std::string child = service::encodeChildOutcome(rs.outcome);
    RunOutcome o;
    const bool okC = service::decodeChildOutcome(child, &o);
    return okR && okC && service::encodeResult(back) == wire &&
           encodeOutcome(o) == encodeOutcome(rs.outcome);
}

/**
 * Child side of one repetition: a fresh daemon serves the whole stream
 * to the closed-loop clients; then, outside the timed window, every
 * result is checked against the direct runs and (traced) timed through
 * the codec.
 */
bool
putRep(const Args &a, const std::vector<service::JobSpec> &stream,
       int index, bool traced, const Truth &truth, Wire &w)
{
    const std::size_t n = stream.size();
    std::vector<double> latMs(n);
    std::vector<service::JobResult> results(n);
    std::vector<std::string> errors(n);
    Tracer tr;
    double cpuS = 0, wallS = 0;
    std::uint64_t counters[6] = {};
    // The client takes a reference sample before each point's first
    // (cold) request and after the last job, outside every latency
    // window; their time is taken out of the repetition's CPU and wall.
    HostSpeed speed;
    {
        LiveDaemon d(a.out + "/svc" + std::to_string(index));
        if (!d.ok())
            return false;
        const double cpu0 =
            rusageCpuS(RUSAGE_SELF) + rusageCpuS(RUSAGE_CHILDREN);
        const std::int64_t w0 = wallNs();
        service::Client cli(d.socket());
        std::vector<char> seen(truth.points.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t pi = streamPointIndex(stream[i]);
            if (stream[i].kind == service::JobKind::Run && !seen[pi]) {
                seen[pi] = 1;
                speed.sample();
            }
            service::JobSpec spec = stream[i];
            spec.client = "sweep";
            const long sp = traced ? tr.open("service.call", spec.id, -1) : -1;
            const std::int64_t t0 = wallNs();
            if (!cli.call(spec, &results[i], &errors[i]) && errors[i].empty())
                errors[i] = "call failed";
            latMs[i] = 1e-6 * static_cast<double>(wallNs() - t0);
            if (traced) {
                tr.close(sp);
                tr.setTag(sp, service::resultSourceName(results[i].source));
            }
        }
        speed.sample();
        wallS = secondsSince(w0) - speed.wallTotalS();
        cpuS = rusageCpuS(RUSAGE_SELF) + rusageCpuS(RUSAGE_CHILDREN) - cpu0 -
               speed.cpuTotalS();
        const service::DaemonCounters &k = d.counters();
        const std::uint64_t got[6] = {k.jobs.load(),    k.sims.load(),
                                      k.cacheHits.load(), k.dedup.load(),
                                      k.retries.load(), k.overloaded.load()};
        std::copy(got, got + 6, counters);
    }

    w.putF64(cpuS);
    w.putF64(wallS);
    w.putF64(speed.cpuScale());
    w.putF64(speed.wallScale());
    for (std::uint64_t c : counters)
        w.putU64(c);
    std::vector<std::string> reasons;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string why =
            checkJob(stream[i], results[i], errors[i], truth);
        if (!why.empty())
            reasons.push_back(why);
        w.putF64(latMs[i]);
        w.putU64(why.empty() ? static_cast<std::uint64_t>(results[i].source)
                             : failedJob);
    }
    w.putU64(reasons.size());
    reasons.resize(std::min<std::size_t>(reasons.size(), 20));
    w.putU64(reasons.size());
    for (const std::string &r : reasons)
        w.putStr(r);

    std::vector<double> codecUs;
    bool codecOk = true;
    if (traced) {
        for (const service::JobResult &rs : results) {
            if (!rs.ok())
                continue;
            const long sp = tr.open("service.codec", rs.id, -1);
            const std::int64_t t0 = wallNs();
            codecOk = codecRoundTrip(rs) && codecOk;
            codecUs.push_back(1e-3 * static_cast<double>(wallNs() - t0));
            tr.close(sp);
        }
    }
    w.putU64(codecUs.size());
    for (double us : codecUs)
        w.putF64(us);
    w.putU64(codecOk ? 1 : 0);
    putSpans(w, tr.spans());
    return true;
}

bool
getRep(Wire &w, std::size_t jobs, Rep *r)
{
    r->cpuS = w.getF64();
    r->wallS = w.getF64();
    r->cpuScale = w.getF64();
    r->wallScale = w.getF64();
    for (std::uint64_t *c : {&r->jobs, &r->sims, &r->hits, &r->dedup,
                             &r->retries, &r->overloaded})
        *c = w.getU64();
    for (std::size_t i = 0; i < jobs; ++i) {
        r->latMs.push_back(w.getF64());
        r->source.push_back(w.getU64());
    }
    r->failed = w.getU64();
    r->reasons.resize(w.getU64());
    for (std::string &s : r->reasons)
        s = w.getStr();
    r->codecUs.resize(w.getU64());
    for (double &us : r->codecUs)
        us = w.getF64();
    r->codecOk = w.getU64() != 0;
    r->spans = getSpans(w);
    return w.done();
}

} // namespace

bool
serviceSetupOnly(const Args &a)
{
    const std::vector<service::JobSpec> stream = jobStream(a.seed);
    LiveDaemon d(a.out + "/svc-probe" + std::to_string(::getpid()));
    return d.ok() && !stream.empty() && signalReady(a);
}

int
runServiceWorkload(const Args &a)
{
    Report rep;
    const std::size_t streamJobs = jobStream(a.seed).size();

    // What every job must return, before (and outside) any timed window.
    Truth truth;
    {
        Wire w;
        rusage ru{};
        if (!inChild([&](Wire &cw) { return putDirectRuns(a, a.trace != 0,
                                                           cw); },
                     &w, &ru) ||
            !getTruth(w, &truth)) {
            std::fprintf(stderr, "perfbench: direct runs failed\n");
            return 1;
        }
    }

    // From here on, everything (set-up probes, daemons, workers and
    // reference samples) shares one CPU.
    pinToCurrentCpu();

    // Set-up: from process start until a daemon on a fresh state
    // directory accepts (bind, cache and queue open, workers up).
    std::vector<double> setup;
    HostSpeed setupSpeed;
    if (!probeSetups(a, &setup, &setupSpeed))
        return 1;

    std::printf("workload %s: %zu jobs per repetition (1 client, closed "
                "loop; 1 worker), seed %llu\n",
                a.workload.c_str(), streamJobs,
                static_cast<unsigned long long>(a.seed));

    std::vector<Rep> untraced, traced;
    // Each repetition serves the stream in its own seeded order.
    auto repetition = [&](int index, bool tracedRep) {
        const std::vector<service::JobSpec> order =
            jobStream(a.seed * 1000003 + static_cast<std::uint64_t>(index));
        Wire w;
        rusage ru{};
        Rep r;
        for (const service::JobSpec &spec : order)
            r.point.push_back(streamPointIndex(spec));
        if (!inChild([&](Wire &cw) {
                return putRep(a, order, index, tracedRep, truth, cw);
            }, &w, &ru) ||
            !getRep(w, order.size(), &r)) {
            std::fprintf(stderr, "perfbench: repetition %d failed\n", index);
            return false;
        }
        r.rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        rep.attempt(streamJobs);
        for (std::uint64_t i = 0; i < r.failed; ++i)
            rep.fail(i < r.reasons.size() ? r.reasons[i]
                                          : "(reason not kept)");
        if (!r.codecOk)
            rep.broken("a codec round trip changed a result");
        (tracedRep ? traced : untraced).push_back(std::move(r));
        return true;
    };
    const std::int64_t t0 = wallNs();
    int index = 0;
    do {
        if (!repetition(index++, false) ||
            (a.trace != 0 && !repetition(index++, true)))
            return 1;
        const Rep &u = untraced.back();
        double p50 = 0, p99 = 0;
        percentile(u.latMs, 50, &p50);
        percentile(u.latMs, 99, &p99);
        std::printf("repetition %d: %.3f CPU-s (daemon + workers), "
                    "%.3f wall-s, peak RSS %.1f MB, p50 %.3f ms, "
                    "p99 %.1f ms\n",
                    index, u.cpuS, u.wallS, u.rssMb, p50, p99);
    } while (secondsSince(t0) < a.seconds);

    // Each repetition scaled by its own reference samples, then the
    // median over the repetitions.
    std::vector<double> cpu, rawCpu, rss, rate, p50, p99, tailMs, cs, ws;
    for (const Rep &r : untraced) {
        cpu.push_back(r.cpuScale * r.cpuS);
        rawCpu.push_back(r.cpuS);
        rss.push_back(r.rssMb);
        rate.push_back(static_cast<double>(streamJobs) /
                       (r.wallScale * r.wallS));
        p50.push_back(r.wallScale * tail(rep, r.latMs, 50, "job_p50_ms"));
        p99.push_back(r.wallScale * tail(rep, r.latMs, 99, "job_p99_ms"));
        tailMs.push_back(r.wallScale *
                         tailMeanOf(rep, r.latMs, 99, "job_tail_ms"));
        cs.push_back(r.cpuScale);
        ws.push_back(r.wallScale);
    }
    rep.e2e("setup_s", setupSpeed.wallScale() * median(setup), "s");
    rep.e2e("sweep_cpu_s", median(cpu), "s");
    // Each repetition's order moves its peak by up to a quarter; the
    // mean over them estimates the typical peak better than their
    // median does.
    rep.e2e("peak_rss_mb", sum(rss) / static_cast<double>(rss.size()), "MB");
    rep.e2e("jobs_per_s", median(rate), "1/s");
    rep.info("job_p50_ms", median(p50), "ms");
    rep.info("job_p99_ms", median(p99), "ms");
    rep.e2e("job_tail_ms", median(tailMs), "ms");
    rep.info("raw_setup_s", median(setup), "s");
    rep.info("raw_sweep_cpu_s", median(rawCpu), "s");
    rep.info("host_cpu_scale", median(cs), "x");
    rep.info("host_wall_scale", median(ws), "x");
    std::printf("%zu untraced repetitions; job_tail_ms is the mean of the "
                "jobs beyond the p99 of each (%zu jobs per repetition)\n",
                untraced.size(), streamJobs);

    std::vector<Op> truthOps;
    for (std::size_t i = 0; i < truth.points.size(); ++i)
        truthOps.push_back({&truth.points[i], &truth.outs[i]});
    const std::map<std::string, double> paper = {
        {"model.dac_speedup_gm", 1.407},
        {"model.winst_reduction", 0.26},
        {"dac.affine_load_share", 0.798}};
    if (a.trace == 0) {
        Report scratch; // simulated outcomes printed, not reported
        addSimulatedMetrics(scratch, truthOps, paper);
        rep.print(a.trace);
        return 0;
    }

    std::vector<Span> all;
    std::vector<double> tcpu, cacheMs, simMs, predMs, overheadMs, codecUs;
    double jobs = 0, sims = 0, hits = 0, dedup = 0, retries = 0,
           overloaded = 0;
    for (const Rep &r : traced) {
        tcpu.push_back(r.cpuScale * r.cpuS);
        appendSpans(all, r.spans);
        for (std::size_t i = 0; i < streamJobs; ++i) {
            switch (r.source[i]) {
              case static_cast<std::uint64_t>(service::ResultSource::Cached):
                cacheMs.push_back(r.latMs[i]);
                break;
              case static_cast<std::uint64_t>(
                  service::ResultSource::Predicted):
                predMs.push_back(r.latMs[i]);
                break;
              case static_cast<std::uint64_t>(
                  service::ResultSource::Simulated):
                simMs.push_back(r.latMs[i]);
                overheadMs.push_back(
                    r.latMs[i] - truth.cpuMs[r.point[i]]);
                break;
              default:
                break;
            }
        }
        codecUs.insert(codecUs.end(), r.codecUs.begin(), r.codecUs.end());
        jobs += static_cast<double>(r.jobs);
        sims += static_cast<double>(r.sims);
        hits += static_cast<double>(r.hits);
        dedup += static_cast<double>(r.dedup);
        retries += static_cast<double>(r.retries);
        overloaded += static_cast<double>(r.overloaded);
    }
    appendSpans(all, truth.spans);
    const double nrep = static_cast<double>(traced.size());

    addLayerCpuMetrics(rep, layerCpu(truth.spans), truthOps);
    rep.layer("service.latency_ms_p50.cache",
              layerPct(cacheMs, 50, "cache latency"), "ms");
    rep.layer("service.latency_ms_p50.sim",
              layerPct(simMs, 50, "sim latency"), "ms");
    rep.layer("service.latency_ms_p90.sim",
              layerPct(simMs, 90, "sim latency"), "ms");
    rep.layer("service.cold_overhead_ms", median(overheadMs), "ms");
    rep.layer("service.latency_ms_p50.pred",
              layerPct(predMs, 50, "predict latency"), "ms");
    rep.layer("service.outcome_codec_us", median(codecUs), "us");
    rep.layer("analysis.predict_us", median(truth.predictUs), "us");
    rep.layer("service.sims", sims / nrep, "count");
    rep.layer("service.dedup", dedup / nrep, "count");
    rep.layer("service.retries", retries / nrep, "count");
    rep.layer("service.overloaded", overloaded / nrep, "count");
    rep.layer("service.cache_hit_ratio", ratio(hits, jobs), "ratio");
    addSimulatedMetrics(rep, truthOps, paper);
    rep.layer("harness.trace_overhead",
              ratio(median(tcpu), median(cpu)) - 1.0, "ratio");
    std::printf("sim-source latency: %zu samples (p99 would need 1000, so "
                "p90 is the reported tail)\n",
                simMs.size());
    printSelfTimes(rep, all);
    writeSpans(rep, a, all);
    rep.print(a.trace);
    return 0;
}

} // namespace perfbench
