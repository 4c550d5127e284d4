#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "bench.hh"

namespace perfbench {

bool
corrupting(const Args &a, const char *check)
{
    return a.corrupt == check;
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok) {
        std::printf("check ok: %s\n", what.c_str());
    } else {
        std::printf("CHECK FAILED: %s\n", what.c_str());
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
        failures_.push_back(what);
    }
    std::fflush(stdout);
}

void
Result::note(const std::string &line)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string
Result::json() const
{
    std::string out = format("{\"correct\": %s, \"attempted\": %llu, "
                             "\"failed\": %llu, \"metrics\": {",
                             correct() ? "true" : "false",
                             static_cast<unsigned long long>(attempted),
                             static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // JSON has no inf/nan; a non-finite value is a broken run and
        // is reported as such by the checks, so clamp it readable.
        const double v = std::isfinite(m.value) ? m.value : 1e300;
        out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    out += "}}";
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0)
        return v[lo];
    if (!std::isfinite(v[hi])) // a failed sample counts as +inf
        return v[hi];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
CpuTimer::now()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

cascade::kernels::KernelStats
kernelDelta(const cascade::kernels::KernelStats &before,
            const cascade::kernels::KernelStats &after)
{
    cascade::kernels::KernelStats d;
    d.gemmCalls = after.gemmCalls - before.gemmCalls;
    d.gemmFlops = after.gemmFlops - before.gemmFlops;
    d.poolHits = after.poolHits - before.poolHits;
    d.poolMisses = after.poolMisses - before.poolMisses;
    return d;
}

size_t
SpanLog::open(const char *name, int64_t batch)
{
    Span s;
    s.name = name;
    s.batch = batch;
    s.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    s.start = now();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(size_t idx)
{
    spans_[idx].end = now();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::vector<double>
SpanLog::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (std::strcmp(s.name, name) == 0)
            out.push_back(s.end - s.start);
    }
    return out;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

bool
writeTraceEvents(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    for (const SpanLog *log : logs) {
        for (const SpanLog::Span &s : log->spans()) {
            std::fprintf(f,
                         "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": %d, \"args\": "
                         "{\"batch\": %lld, \"parent\": %d}}",
                         first ? "" : ",", s.name,
                         layerOf(s.name).c_str(), s.start * 1e6,
                         (s.end - s.start) * 1e6, log->tid(),
                         static_cast<long long>(s.batch), s.parent);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace perfbench
