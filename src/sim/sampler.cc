#include "sim/sampler.hh"

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace psim::stats
{

Sampler::Sampler(Tick interval) : _interval(interval)
{
    psim_assert(interval > 0, "sample interval must be positive");
}

void
Sampler::addProbe(std::string name, std::function<double()> fn)
{
    psim_assert(_rows.empty(), "probes must register before the first "
            "sample");
    _names.push_back(std::move(name));
    _probes.push_back(std::move(fn));
}

void
Sampler::sampleAt(Tick t)
{
    psim_assert(_rows.empty() || t > _rows.back().tick,
            "sample ticks must be strictly increasing");
    Row row;
    row.tick = t;
    row.values.reserve(_probes.size());
    for (const auto &p : _probes)
        row.values.push_back(p());
    _rows.push_back(std::move(row));
}

void
Sampler::dumpJson(std::ostream &os) const
{
    os << "{\"interval\":" << _interval << ",\"probes\":[";
    for (std::size_t i = 0; i < _names.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(_names[i]) << "\"";
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        os << (r ? "," : "") << "[" << _rows[r].tick;
        for (double v : _rows[r].values)
            os << "," << jsonNumber(v);
        os << "]";
    }
    os << "]}";
}

void
Sampler::dumpCsv(std::ostream &os) const
{
    os << "tick";
    for (const auto &n : _names)
        os << "," << n;
    os << "\n";
    for (const auto &row : _rows) {
        os << row.tick;
        for (double v : row.values)
            os << "," << jsonNumber(v);
        os << "\n";
    }
}

} // namespace psim::stats
