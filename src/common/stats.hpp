/**
 * @file
 * Statistics framework: named scalar stats grouped per component, simple
 * histograms, and the interval traffic tracker used to reproduce Figure 10
 * (average and peak broadcasts per 100,000-cycle window).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cgct {

class Histogram;
class Distribution;
class Archive;

/**
 * A group of named statistics belonging to one component. Components
 * register pointers to their counters (or closures computing derived
 * values); dump() renders them. Registration is cheap and the counters
 * themselves stay plain integers on the component's hot path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a raw 64-bit counter. The pointer must outlive the group. */
    void
    addScalar(std::string name, std::string desc, const std::uint64_t *value);

    /** Register a derived value computed on demand. */
    void
    addDerived(std::string name, std::string desc,
               std::function<double()> fn);

    /** Register a histogram. The pointer must outlive the group. */
    void
    addHistogram(std::string name, std::string desc, const Histogram *h);

    /** Register a distribution. The pointer must outlive the group. */
    void
    addDistribution(std::string name, std::string desc,
                    const Distribution *d);

    /** Render "group.stat  value  # desc" lines. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    struct Entry {
        std::string name;
        std::string desc;
        const std::uint64_t *raw = nullptr;
        std::function<double()> fn;
        const Histogram *hist = nullptr;
        const Distribution *dist = nullptr;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

/**
 * Fixed-bucket histogram (linear buckets plus an overflow bucket).
 * Used for request-latency and lines-per-region distributions.
 */
class Histogram
{
  public:
    /** @p bucket_width per-bucket span, @p num_buckets linear buckets. */
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p count samples of the same value. */
    void record(std::uint64_t value, std::uint64_t count);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const;

    /** Count in bucket @p i; the last bucket is the overflow bucket. */
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

    /** Smallest value v such that at least fraction @p q of samples <= v. */
    std::uint64_t percentile(double q) const;

    /** Fold @p other in (bucket-wise). Geometries must match exactly. */
    void merge(const Histogram &other);

    void reset();
    void dump(std::ostream &os, const std::string &label) const;

    /** Checkpoint layout; geometry must match on restore. */
    void transfer(Archive &ar);

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Running moments of a sample stream: count, min, max, mean, standard
 * deviation. Cheaper than a Histogram when the value range is unknown
 * (e.g. region lifetimes in ticks) and exactly mergeable across
 * instances, which the run harness uses to aggregate per-CPU trackers.
 */
class Distribution
{
  public:
    void record(double v);

    /** Fold @p other in; equivalent to recording its samples here. */
    void merge(const Distribution &other);

    std::uint64_t samples() const { return n_; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double mean() const;
    /** Population standard deviation (0 for fewer than two samples). */
    double stddev() const;

    void reset() { *this = Distribution{}; }
    void dump(std::ostream &os, const std::string &label) const;

    /** Checkpoint layout (moments stored as raw double bits). */
    void transfer(Archive &ar);

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumsq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Tracks event counts per fixed-size window of simulated time, recording
 * the total and the peak-window count. Figure 10 reports broadcasts per
 * 100,000 cycles, both averaged over the run and for the worst window.
 */
class IntervalTracker
{
  public:
    explicit IntervalTracker(Tick window = 100000) : window_(window) {}

    /** Note one event at time @p now. Times must be non-decreasing. */
    void note(Tick now);

    /** Total events recorded. */
    std::uint64_t total() const { return total_; }

    /** Count in the busiest completed-or-current window. */
    std::uint64_t peakWindowCount() const;

    /** Events per window, averaged over elapsed time up to @p end_tick. */
    double averagePerWindow(Tick end_tick) const;

    Tick window() const { return window_; }

    /** Clear counts; elapsed time restarts at @p start_tick. */
    void reset(Tick start_tick = 0);

    /** Checkpoint layout; window size must match on restore. */
    void transfer(Archive &ar);

  private:
    Tick window_;
    Tick start_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t currentWindowIndex_ = 0;
    std::uint64_t currentWindowCount_ = 0;
    std::uint64_t peak_ = 0;
};

} // namespace cgct
