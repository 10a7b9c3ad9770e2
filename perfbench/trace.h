/**
 * @file
 * In-memory spans recorded around calls into the simulator's modules.
 *
 * Every span names the layer it times (a src/ module name, e.g.
 * "sim.launch"), its wall-clock interval, the CPU time of the calling
 * thread over that interval, its parent span and the run or job it
 * belongs to. Spans are recorded from the benchmark's own code around
 * public entry points only; nothing inside the program is traced.
 */

#ifndef DACSIM_PERFBENCH_TRACE_H
#define DACSIM_PERFBENCH_TRACE_H

#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the monotonic clock. */
inline std::int64_t
wallNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** CPU nanoseconds consumed by the calling thread. */
inline std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** CPU time of the recording thread between open and close. */
    std::int64_t cpuNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    long parent = -1;
    /** Run (sweep op) or job id the span belongs to. */
    std::uint64_t run = 0;
    /** Free-form qualifier, e.g. the machine or the result source. */
    std::string tag;

    std::int64_t durNs() const { return endNs - startNs; }
};

/** Thread-safe span store. Spans of one run are opened and closed by
 * one thread, strictly nested. */
class Tracer
{
  public:
    /** Open a span and return its index (stable for the tracer's
     * lifetime). */
    long
    open(std::string name, std::uint64_t run, long parent,
         std::string tag = {})
    {
        Span s;
        s.name = std::move(name);
        s.run = run;
        s.parent = parent;
        s.tag = std::move(tag);
        s.cpuNs = threadCpuNs();
        s.startNs = wallNs();
        std::lock_guard<std::mutex> g(mu_);
        spans_.push_back(std::move(s));
        return static_cast<long>(spans_.size()) - 1;
    }

    void
    close(long idx)
    {
        const std::int64_t end = wallNs();
        const std::int64_t cpu = threadCpuNs();
        std::lock_guard<std::mutex> g(mu_);
        Span &s = spans_[static_cast<std::size_t>(idx)];
        s.endNs = end;
        s.cpuNs = cpu - s.cpuNs;
    }

    /** Qualify a span once its outcome is known (e.g. the result
     * source of a service call). */
    void
    setTag(long idx, std::string tag)
    {
        std::lock_guard<std::mutex> g(mu_);
        spans_[static_cast<std::size_t>(idx)].tag = std::move(tag);
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return spans_;
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, std::string name, std::uint64_t run, long parent,
          std::string tag = {})
        : t_(t),
          idx_(t ? t->open(std::move(name), run, parent, std::move(tag))
                 : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long index() const { return idx_; }

  private:
    Tracer *t_;
    long idx_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (clipped to the parent, and
 * counting overlapping children once).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Self time summed per span name. */
std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans);

/** Every span lies within its parent and no self time is negative, so
 * the per-layer self times of a tree sum to at most its root. */
bool wellNested(const std::vector<Span> &spans);

/** Write the spans as one JSON array (one object per line). */
bool writeSpansJson(const std::vector<Span> &spans, const std::string &path);

} // namespace perfbench

#endif // DACSIM_PERFBENCH_TRACE_H
