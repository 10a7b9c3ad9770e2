#include "bench.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "compiler/cfg.h"
#include "compiler/decoupler.h"
#include "sim/gpu.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace dacsim;

const char *
machineKey(Technique t)
{
    switch (t) {
      case Technique::Baseline: return "baseline";
      case Technique::Cae: return "cae";
      case Technique::Mta: return "mta";
      case Technique::Dac: return "dac";
    }
    return "?";
}

std::vector<Point>
sweepPoints(const std::vector<std::string> &benches, double scale)
{
    std::vector<Point> pts;
    for (const std::string &b : benches)
        for (Technique t : machines)
            pts.push_back({b, t, scale});
    return pts;
}

std::vector<std::string>
allBenchNames()
{
    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

Digest
digestOf(const RunOutcome &out)
{
    Digest d;
    d.stateHash = out.stats.stateHash;
    d.cycles = out.stats.cycles;
    d.warpInsts = out.stats.totalWarpInsts();
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t c : out.checksums) {
        for (int i = 0; i < 8; ++i) {
            h ^= (c >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    d.outputs = h;
    return d;
}

namespace
{

std::uint64_t
scaleBits(double s)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &s, sizeof b);
    return b;
}

} // namespace

std::string
PinnedTable::key(const Point &p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, scaleBits(p.scale));
    return p.bench + " " + machineKey(p.tech) + " " + buf;
}

void
PinnedTable::put(const Point &p, const Digest &d)
{
    rows_[key(p)] = d;
}

const Digest *
PinnedTable::find(const Point &p) const
{
    auto it = rows_.find(key(p));
    return it == rows_.end() ? nullptr : &it->second;
}

bool
PinnedTable::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in.good()) {
        *error = "cannot read " + path;
        return false;
    }
    rows_.clear();
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string bench, tech, scale;
        Digest d;
        is >> bench >> tech >> scale >> std::hex >> d.stateHash >>
            std::dec >> d.cycles >> d.warpInsts >> std::hex >> d.outputs;
        if (!is || scale.size() != 16) {
            *error = path + ":" + std::to_string(lineNo) + ": malformed row";
            return false;
        }
        rows_[bench + " " + tech + " " + scale] = d;
    }
    if (rows_.empty()) {
        *error = path + ": no rows";
        return false;
    }
    return true;
}

bool
PinnedTable::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "# bench machine scale-bits state-hash cycles "
                    "warp-insts outputs-fnv\n");
    for (const auto &[k, d] : rows_)
        std::fprintf(f, "%s %016" PRIx64 " %" PRIu64 " %" PRIu64
                        " %016" PRIx64 "\n",
                     k.c_str(), d.stateHash, d.cycles, d.warpInsts,
                     d.outputs);
    return std::fclose(f) == 0;
}

namespace
{

/** Why @p out is not a correct run of @p p ("" when it is). */
std::string
checkRun(const PinnedTable &pins, const Point &p, const RunOutcome &out)
{
    const std::string what =
        p.bench + "/" + machineKey(p.tech) + "@" + std::to_string(p.scale);
    if (!out.error.ok() || out.fellBack)
        return what + ": run failed (" +
               runErrorKindName(out.error.kind) + "): " + out.error.what;
    const Digest *pin = pins.find(p);
    if (pin == nullptr)
        return what + ": no pinned digest";
    if (!(digestOf(out) == *pin))
        return what + ": RunStats digest differs from the pinned table";
    return "";
}

} // namespace

std::vector<OpFailure>
failedOps(const PinnedTable &pins, const std::vector<Point> &points,
          const std::vector<RunOutcome> &outs)
{
    std::map<std::string, const RunOutcome *> baseline;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].tech == Technique::Baseline)
            baseline[points[i].bench] = &outs[i];
    std::vector<OpFailure> failed;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string why = checkRun(pins, points[i], outs[i]);
        auto b = baseline.find(points[i].bench);
        if (why.empty() &&
            (b == baseline.end() || b->second->checksums != outs[i].checksums))
            why = points[i].bench + "/" + machineKey(points[i].tech) +
                  ": output checksums differ from the baseline's";
        if (!why.empty())
            failed.push_back({i, why});
    }
    return failed;
}

RunOptions
runOptions(const Point &p)
{
    RunOptions opt;
    opt.tech = p.tech;
    opt.scale = p.scale;
    return opt;
}

namespace
{

/** @p f() inside a span. */
template <typename F>
auto
inSpan(Tracer &tr, const char *name, std::uint64_t run, long parent,
       const std::string &tag, F &&f)
{
    Scope s(&tr, name, run, parent, tag);
    return f();
}

} // namespace

RunOutcome
tracedRun(const Point &p, Tracer &tr, std::uint64_t run, long parent)
{
    const RunOptions opt = runOptions(p);
    const std::string tag = machineKey(p.tech);
    RunOutcome out;
    try {
        const Workload &wl = findWorkload(p.bench);
        GpuMemory gmem;
        PreparedWorkload prep =
            inSpan(tr, "workloads.prepare", run, parent, tag,
                   [&] { return wl.prepare(gmem, opt.scale); });
        const DecoupledKernel dec =
            inSpan(tr, "compiler.decouple", run, parent, tag, [&] {
                analyzeControlFlow(prep.kernel);
                return decouple(prep.kernel, opt.dac);
            });
        GpuConfig gcfg = opt.gpu;
        gcfg.perfectMemory = opt.perfectMemory;
        Gpu gpu = inSpan(tr, "sim.init", run, parent, tag, [&] {
            return Gpu(gcfg, opt.tech, opt.dac, opt.cae, opt.mta, gmem);
        });
        const std::size_t launches =
            prep.launchParams.empty()
                ? static_cast<std::size_t>(prep.launches)
                : prep.launchParams.size();
        for (std::size_t i = 0; i < launches; ++i) {
            LaunchInfo li;
            li.grid = prep.grid;
            li.block = prep.block;
            li.params = prep.launchParams.empty() ? &prep.params
                                                  : &prep.launchParams[i];
            if (opt.tech == Technique::Dac) {
                li.kernel = &dec.nonAffine;
                li.affineKernel = &dec.affine;
            } else {
                li.kernel = &prep.kernel;
                if (opt.tech == Technique::Baseline)
                    li.coverageMarks = &dec.coveredByDac;
            }
            inSpan(tr, "sim.launch", run, parent, tag,
                   [&] { gpu.launch(li); });
        }
        out.stats = gpu.stats();
        out.anyDecoupled = dec.anyDecoupled;
        out.numDecoupledLoads = dec.numDecoupledLoads;
        out.numDecoupledStores = dec.numDecoupledStores;
        out.numDecoupledPreds = dec.numDecoupledPreds;
        for (auto [base, bytes] : prep.outputs)
            out.checksums.push_back(gmem.checksum(base, bytes));
        out.hashChain = gpu.hashChain();
        out.lastStateHash = out.stats.stateHash;
    } catch (const std::exception &e) {
        out = RunOutcome{};
        out.error.kind = RunErrorKind::Panic;
        out.error.what = e.what();
    }
    return out;
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    // splitmix64: fully specified here, so a seed means the same order
    // with every standard library.
    std::uint64_t x = seed;
    auto next = [&x] {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[next() % i]);
    return p;
}

std::vector<service::JobSpec>
jobStream(std::uint64_t seed)
{
    const std::vector<std::string> all = allBenchNames();
    std::vector<service::JobSpec> pool;
    for (const Point &p : sweepPoints(all, quickScale)) {
        service::JobSpec spec;
        spec.bench = p.bench;
        spec.tech = p.tech;
        spec.setScale(quickScale);
        for (int i = 0; i < 1 + hitsPerPoint; ++i)
            pool.push_back(spec);
        spec.kind = service::JobKind::Predict;
        spec.setScale(paperScale);
        pool.push_back(spec);
    }
    std::vector<service::JobSpec> stream;
    stream.reserve(pool.size());
    for (std::size_t i : permutation(pool.size(), seed)) {
        stream.push_back(pool[i]);
        stream.back().id = stream.size();
    }
    return stream;
}

std::size_t
streamPointIndex(const service::JobSpec &spec)
{
    std::size_t bench = 0;
    const auto &all = allWorkloads();
    while (bench < all.size() && all[bench].name != spec.bench)
        ++bench;
    return bench * 4 + static_cast<std::size_t>(spec.tech);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

} // namespace perfbench
