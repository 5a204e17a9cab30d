#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <unordered_map>

#include <malloc.h>
#include <sys/resource.h>

#include "machine/builder.hh"

namespace perfbench
{

const std::vector<BenchWorkload> &
benchWorkloads()
{
    // Why each workload is here is recorded in BENCHMARK.json; the
    // comments name the layer each one loads.
    static const std::vector<BenchWorkload> table = {
        // Saturated software D-nodes: proto handlers, net, sim dispatch.
        {"fft_agg_dsat", "fft", ArchKind::Agg, 0.75, 2, 1},
        // Reads served by L1/L2/local memory: core, mem, workload.
        {"barnes_agg_reuse", "barnes", ArchKind::Agg, 0.25, 1, 1},
    };
    return table;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const auto &bw : benchWorkloads()) {
        if (bw.name == name)
            return &bw;
    }
    return nullptr;
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** FNV-1a over the raw bytes of each value fed in. */
class Hasher
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    time(const TimeBreakdown &t)
    {
        u64(t.busy);
        u64(t.sync);
        u64(t.memoryStall);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Counters runDigest hashes: all but the oracle's own. */
bool
digestedCounter(const std::string &name)
{
    return name.rfind("check.", 0) != 0;
}

} // namespace

PermutedWorkload::PermutedWorkload(std::unique_ptr<Workload> inner,
                                   std::uint64_t seed)
    : inner_(std::move(inner)), perm_(kThreads)
{
    for (int t = 0; t < kThreads; ++t)
        perm_[static_cast<std::size_t>(t)] = t;
    if (seed == kDefaultSeed)
        return;
    std::uint64_t state = seed;
    for (int i = kThreads - 1; i > 0; --i) {
        const auto j = static_cast<int>(
            splitmix64(state) % static_cast<std::uint64_t>(i + 1));
        std::swap(perm_[static_cast<std::size_t>(i)],
                  perm_[static_cast<std::size_t>(j)]);
    }
}

std::unique_ptr<OpStream>
PermutedWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    const bool permuted =
        num_threads == kThreads && tid >= 0 && tid < kThreads;
    return inner_->makeStream(
        phase, permuted ? perm_[static_cast<std::size_t>(tid)] : tid,
        num_threads);
}

std::unique_ptr<PermutedWorkload>
makeBenchWorkload(const BenchWorkload &bw, std::uint64_t seed)
{
    return std::make_unique<PermutedWorkload>(makeWorkload(bw.app, bw.scale),
                                              seed);
}

MachineConfig
makeBenchConfig(const BenchWorkload &bw, const Workload &wl,
                std::uint64_t seed, bool oracle)
{
    BuildSpec spec;
    spec.arch = bw.arch;
    spec.threads = kThreads;
    spec.pressure = bw.pressure;
    spec.dRatio = bw.dRatio;
    MachineConfig cfg = buildConfig(wl, spec);
    cfg.seed = seed;
    cfg.check.enabled = oracle;
    // runWorkload applies these itself; the traced run and the set-up
    // timing build their Machine from this config directly.
    cfg.l1.sizeBytes = wl.l1Bytes();
    cfg.l2.sizeBytes = wl.l2Bytes();
    return cfg;
}

RunOptions
makeRunOptions(bool oracle)
{
    RunOptions opts;
    opts.checkInvariants = oracle;
    return opts;
}

std::string
runDigest(const RunResult &r)
{
    Hasher h;
    h.u64(r.totalTicks);
    h.u64(r.reconfigTicks);
    h.time(r.time);
    for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
        h.u64(r.reads.count[i]);
        h.u64(r.reads.totalLatency[i]);
    }
    h.u64(r.census.dirtyInPNode);
    h.u64(r.census.sharedInPNode);
    h.u64(r.census.dNodeOnly);
    h.u64(r.census.dNodeCapacityLines);
    h.u64(r.census.dNodeUsedLines);
    h.u64(r.phases.size());
    for (const auto &p : r.phases) {
        h.str(p.name);
        h.u64(p.startTick);
        h.u64(p.endTick);
        h.time(p.time);
    }
    for (const auto &[name, value] : r.counters) {
        if (!digestedCounter(name))
            continue;
        h.str(name);
        h.f64(value);
    }
    h.u64(r.messages);
    h.u64(r.instructions);
    h.f64(r.dNodeUtilization);
    h.u64(static_cast<std::uint64_t>(r.autoReconfigs));
    h.u64(static_cast<std::uint64_t>(r.failovers));
    h.u64(r.failoverTicks);
    h.u64(static_cast<std::uint64_t>(r.pnodeFailovers));
    h.u64(r.pnodeFailoverTicks);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
}

void
resetPeakRss()
{
    malloc_trim(0);
    // "5" sets VmHWM to the current VmRSS (Linux >= 4.0).
    std::ofstream f("/proc/self/clear_refs");
    if (f)
        f << "5";
}

double
peakRssMb()
{
    std::ifstream st("/proc/self/status");
    std::string line;
    while (std::getline(st, line)) {
        long kb = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1)
            return static_cast<double>(kb) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
cpuSeconds()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
refKernelSeconds()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::uint64_t state = 7;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1;
        return state;
    };
    const auto t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<std::uint32_t, std::uint64_t> table;
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t r = next();
        queue.push({r >> 40, static_cast<std::uint32_t>(r >> 20)});
    }
    for (int i = 0; i < 200000; ++i) {
        const auto [when, key] = queue.top();
        queue.pop();
        table[key & 0xfffffu] += when;
        const std::uint64_t r = next();
        queue.push({when + (r >> 50) + 1, static_cast<std::uint32_t>(r >> 20)});
    }
    const volatile std::size_t sink = table.size() + queue.size();
    (void)sink;
    return secondsBetween(t0, Clock::now());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace perfbench
