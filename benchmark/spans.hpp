/**
 * @file
 * In-memory span log for the benchmark's traced runs. Spans are recorded
 * from the benchmark's own code around its calls into libcgct, kept in
 * memory, and written out once at exit, so nothing is timed twice and the
 * simulator itself is not modified. A span's self time is its duration
 * minus the time its child spans cover.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The spans of one benchmark process. */
class SpanLog
{
  public:
    /** A disabled log records nothing and costs one branch per span. */
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Open a span as a child of the innermost open span. @p sim groups
     * the spans of one simulation. Returns the span id, or -1 when the
     * log is disabled.
     */
    int open(const char *name, std::uint32_t sim);

    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    /**
     * Record an already-measured child of @p parent: an aggregate such as
     * the summed time of every op-source call made during one run, laid
     * out from the parent's start.
     */
    void addAggregate(const char *name, int parent, double seconds,
                      std::uint64_t calls);

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    void writeChrome(std::ostream &os) const;

    /** Per-name totals: count, summed duration and summed self time. */
    struct SelfTime {
        std::string name;
        std::uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };
    std::vector<SelfTime> selfTimes() const;

  private:
    struct Span {
        const char *name;
        double startS;
        double endS;
        int parent;
        std::uint32_t sim;
        std::uint64_t calls; ///< Aggregated calls; 0 for a plain span.
    };

    double now() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint32_t sim = 0)
        : log_(log), id_(log.open(name, sim))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace bench
