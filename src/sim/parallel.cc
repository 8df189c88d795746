#include "sim/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace psim
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PSIM_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
        psim_warn("ignoring invalid PSIM_JOBS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runGrid(std::size_t n, unsigned jobs,
        const std::function<void(std::size_t)> &fn)
{
    if (jobs > n)
        jobs = static_cast<unsigned>(n);
    std::atomic<std::size_t> next{0};
    auto pull = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::jthread> helpers; // joined on scope exit
    for (unsigned t = 1; t < jobs; ++t)
        helpers.emplace_back(pull);
    pull();
}

} // namespace psim
