/**
 * @file
 * Small self-contained helpers for the perfbench driver: clocks,
 * order statistics, per-process CPU and peak-RSS readers, a seeded
 * generator, answer normalization and the in-memory span tracer.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

inline double
msBetween(uint64_t start_ns, uint64_t end_ns)
{
    return double(end_ns - start_ns) / 1e6;
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty set. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** CPU time (user + system) of process @p pid in ms, from
 *  /proc/<pid>/stat; -1 when unreadable. */
inline double
procCpuMs(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return -1;
    // Fields after the parenthesized command name; utime and stime
    // are fields 14 and 15 of the whole line.
    size_t close = line.rfind(')');
    if (close == std::string::npos)
        return -1;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15)
            stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    return double(utime + stime) * 1000.0 / double(sysconf(_SC_CLK_TCK));
}

/** CPU time of this process in ms. */
inline double
selfCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

/** Peak resident set (VmHWM) in MiB of "self" or a pid; -1 when
 *  unreadable. */
inline double
vmHwmMiB(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return double(std::strtoull(line.c_str() + 6, nullptr, 10)) /
                   1024.0;
    }
    return -1;
}

/** splitmix64: the workload generator's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** Drop the digits of fresh-variable names ("_G123" → "_G"): their
 *  numbering comes from a process-global counter and differs between
 *  engines and processes. */
inline std::string
stripVarNumbers(const std::string &s)
{
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
        out += s[i];
        if (s[i] == '_' && (i == 0 || !isalnum((unsigned char)s[i - 1]))) {
            while (i + 1 < s.size() && isdigit((unsigned char)s[i + 1]))
                ++i;
        }
    }
    return out;
}

/**
 * In-memory span recorder. A span is one call into a layer's public
 * function made from the benchmark: name, start, end, parent span and
 * request id. Nothing is written until write() at exit. Disabled
 * tracers record nothing and cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        int parent = -1;
        uint64_t request = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    begin(const std::string &name, int parent = -1, uint64_t request = 0)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, nowNs(), 0, parent, request});
        return int(spans_.size() - 1);
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[size_t(id)].endNs = nowNs();
    }

    /** Record a span whose interval was measured elsewhere. */
    int
    add(const std::string &name, uint64_t start_ns, uint64_t end_ns,
        int parent = -1, uint64_t request = 0)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, start_ns, end_ns, parent, request});
        return int(spans_.size() - 1);
    }

    double
    durationMs(int id) const
    {
        const Span &s = spans_[size_t(id)];
        return msBetween(s.startNs, s.endNs);
    }

    /** Duration minus the union of the intervals its children cover. */
    double
    selfMs(int id) const
    {
        const Span &s = spans_[size_t(id)];
        std::vector<std::pair<uint64_t, uint64_t>> kids;
        for (const Span &c : spans_)
            if (&c != &s && c.parent == id)
                kids.push_back({std::max(c.startNs, s.startNs),
                                std::min(c.endNs, s.endNs)});
        std::sort(kids.begin(), kids.end());
        uint64_t covered = 0, reach = s.startNs;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        return double(s.endNs - s.startNs - covered) / 1e6;
    }

    /** Durations (ms) of every span named @p name. */
    std::vector<double>
    durationsMs(const std::string &name) const
    {
        std::vector<double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                out.push_back(durationMs(int(i)));
        return out;
    }

    /** One JSON object per span, one per line. */
    bool
    write(const std::string &path) const
    {
        FILE *f = fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            fprintf(f,
                    "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"request\": %llu, \"start_ns\": %llu, "
                    "\"end_ns\": %llu, \"self_ms\": %.6f}\n",
                    i, s.name.c_str(), s.parent,
                    (unsigned long long)s.request,
                    (unsigned long long)s.startNs,
                    (unsigned long long)s.endNs, selfMs(int(i)));
        }
        return fclose(f) == 0;
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
