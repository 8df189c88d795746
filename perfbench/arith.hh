/**
 * @file
 * The benchmark's own arithmetic: medians, ratios against a base cell,
 * geometric means, failure shares, the Figure-6 model error and the
 * digests that pin simulated statistics. Pure functions, so
 * selftest.cc can check each against hand-computed values.
 */

#ifndef PERFBENCH_ARITH_HH
#define PERFBENCH_ARITH_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Median of @p v (mean of the middle pair for even sizes); NaN if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return kNaN;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/** Largest entry of @p v; NaN if empty. */
inline double
maximum(std::vector<double> v)
{
    return v.empty() ? kNaN : *std::max_element(v.begin(), v.end());
}

/** @p value relative to @p base; NaN when the base is not positive. */
inline double
ratio(double value, double base)
{
    return base > 0 ? value / base : kNaN;
}

/**
 * Geometric mean over the positive, finite entries of @p v; NaN when
 * there are none. A cell whose prefetcher removed every miss has ratio
 * 0 and no logarithm, so it is left out rather than zeroing the mean.
 */
inline double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    std::size_t n = 0;
    for (double x : v) {
        if (x > 0 && std::isfinite(x)) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : kNaN;
}

/** Share of @p attempted runs that failed; 0 when nothing was attempted. */
inline double
failedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                     : 0.0;
}

/** Host nanoseconds per operation; 0 (not NaN) for an empty stream. */
inline double
nsPer(double seconds, std::uint64_t ops)
{
    return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

/**
 * Figure 6 (top) of the paper: read misses relative to the
 * no-prefetch baseline, as read off the figure and tabulated in
 * EXPERIMENTS.md ("Figure 6 -- the headline comparison").
 */
struct Fig6Paper
{
    const char *app;
    double idet;
    double ddet;
    double seq;
};

inline constexpr Fig6Paper kFig6Paper[] = {
    {"mp3d", 0.95, 0.95, 0.72},  {"cholesky", 0.50, 0.60, 0.45},
    {"water", 0.30, 0.40, 0.30}, {"lu", 0.35, 0.45, 0.30},
    {"ocean", 0.55, 0.60, 0.80}, {"pthor", 1.00, 1.00, 0.90},
};

/**
 * Mean absolute error of measured read-misses-relative against
 * kFig6Paper. @p measured maps "app/scheme" (scheme one of "idet",
 * "ddet", "seq") to the measured ratio; entries the paper has and the
 * map lacks are skipped. NaN when nothing overlaps.
 */
inline double
fig6Error(const std::map<std::string, double> &measured)
{
    double sum = 0;
    unsigned n = 0;
    for (const Fig6Paper &p : kFig6Paper) {
        const std::pair<const char *, double> cols[] = {
            {"idet", p.idet}, {"ddet", p.ddet}, {"seq", p.seq}};
        for (const auto &[scheme, paper] : cols) {
            auto it = measured.find(std::string(p.app) + "/" + scheme);
            if (it == measured.end() || !std::isfinite(it->second))
                continue;
            sum += std::fabs(it->second - paper);
            ++n;
        }
    }
    return n ? sum / n : kNaN;
}

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/** FNV-1a over @p len bytes, continuing from @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), h);
}

/** The 48-bit hex form digests are pinned in (pins.json). */
inline std::string
digestHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%012llx",
                  static_cast<unsigned long long>(h & 0xffffffffffffULL));
    return buf;
}

} // namespace perfbench

#endif // PERFBENCH_ARITH_HH
