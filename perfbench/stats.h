/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * A percentile is reported only when at least ten samples lie beyond
 * it; otherwise its value would rest on a handful of outliers. The
 * rule decides which tail each workload can report (p99 needs 1000
 * samples, p90 needs 100, p75 needs 40); the same rule applies to the
 * mean of the samples beyond a percentile.
 */

#ifndef DACSIM_PERFBENCH_STATS_H
#define DACSIM_PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t minSamplesBeyond = 10;

/**
 * The @p pct-th percentile (1..99) of @p v by nearest rank: the
 * smallest sample with at least pct% of the samples at or below it.
 * False, with *out untouched, when fewer than minSamplesBeyond
 * samples lie beyond that rank.
 */
inline bool
percentile(std::vector<double> v, int pct, double *out)
{
    if (pct < 1 || pct > 99 || v.empty())
        return false;
    const std::size_t n = v.size();
    const std::size_t rank =
        (static_cast<std::size_t>(pct) * n + 99) / 100; // ceil, >= 1
    if (n - rank < minSamplesBeyond)
        return false;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    *out = v[rank - 1];
    return true;
}

/**
 * Mean of the samples beyond the @p pct-th percentile (the "tail
 * mean"): the slowest (100 - pct)% of @p v, averaged. Refused, like
 * percentile(), unless at least minSamplesBeyond samples lie beyond
 * that rank. Steadier than the percentile itself, which is a single
 * sample.
 */
inline bool
tailMean(std::vector<double> v, int pct, double *out)
{
    double cut = 0;
    if (!percentile(v, pct, &cut))
        return false;
    const std::size_t rank =
        (static_cast<std::size_t>(pct) * v.size() + 99) / 100;
    std::sort(v.begin(), v.end());
    double s = 0;
    for (std::size_t i = rank; i < v.size(); ++i)
        s += v[i];
    *out = s / static_cast<double>(v.size() - rank);
    return true;
}

/** Classic median (mean of the middle pair for an even count); 0 for
 * an empty vector. Used to combine repetitions, not for tails. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench

#endif // DACSIM_PERFBENCH_STATS_H
