#include "sim/stats.hh"

namespace pimdsm
{

double
StatSet::get(std::string_view name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

double &
StatSet::slot(std::string_view name)
{
    auto it = scalars_.find(name);
    if (it == scalars_.end())
        it = scalars_.emplace(std::string(name), 0.0).first;
    return it->second;
}

const char *
readServiceName(ReadService s)
{
    switch (s) {
      case ReadService::FLC:
        return "FLC";
      case ReadService::SLC:
        return "SLC";
      case ReadService::LocalMem:
        return "Memory";
      case ReadService::Hop2:
        return "2Hop";
      case ReadService::Hop3:
        return "3Hop";
      default:
        return "?";
    }
}

Tick
ReadLatencyStats::totalAllLatency() const
{
    Tick t = 0;
    for (auto v : totalLatency)
        t += v;
    return t;
}

std::uint64_t
ReadLatencyStats::totalAllCount() const
{
    std::uint64_t t = 0;
    for (auto v : count)
        t += v;
    return t;
}

ReadLatencyStats &
ReadLatencyStats::operator+=(const ReadLatencyStats &o)
{
    for (int i = 0; i < kNum; ++i) {
        count[i] += o.count[i];
        totalLatency[i] += o.totalLatency[i];
    }
    return *this;
}

} // namespace pimdsm
