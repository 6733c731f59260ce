#include "common/stats.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

void
StatGroup::addScalar(std::string name, std::string desc,
                     const std::uint64_t *value)
{
    entries_.push_back({std::move(name), std::move(desc), value, {}});
}

void
StatGroup::addDerived(std::string name, std::string desc,
                      std::function<double()> fn)
{
    entries_.push_back({std::move(name), std::move(desc), nullptr,
                        std::move(fn)});
}

void
StatGroup::addHistogram(std::string name, std::string desc,
                        const Histogram *h)
{
    Entry e{std::move(name), std::move(desc), nullptr, {}, h, nullptr};
    entries_.push_back(std::move(e));
}

void
StatGroup::addDistribution(std::string name, std::string desc,
                           const Distribution *d)
{
    Entry e{std::move(name), std::move(desc), nullptr, {}, nullptr, d};
    entries_.push_back(std::move(e));
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &e : entries_) {
        if (e.hist) {
            e.hist->dump(os, name_ + "." + e.name + " # " + e.desc);
            continue;
        }
        if (e.dist) {
            e.dist->dump(os, name_ + "." + e.name + " # " + e.desc);
            continue;
        }
        os << std::left << std::setw(44) << (name_ + "." + e.name) << " ";
        if (e.raw) {
            os << std::setw(16) << *e.raw;
        } else {
            os << std::setw(16) << std::fixed << std::setprecision(4)
               << e.fn();
        }
        os << " # " << e.desc << "\n";
    }
}

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
{
}

void
Histogram::record(std::uint64_t value)
{
    record(value, 1);
}

void
Histogram::record(std::uint64_t value, std::uint64_t count)
{
    std::size_t idx = value / bucketWidth_;
    if (idx >= buckets_.size() - 1)
        idx = buckets_.size() - 1;
    buckets_[idx] += count;
    samples_ += count;
    sum_ += value * count;
}

double
Histogram::mean() const
{
    return samples_ ? static_cast<double>(sum_) /
                          static_cast<double>(samples_)
                    : 0.0;
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (samples_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target || seen == samples_)
            return (i + 1) * bucketWidth_ - 1;
    }
    return buckets_.size() * bucketWidth_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.bucketWidth_ != bucketWidth_ ||
        other.buckets_.size() != buckets_.size())
        panic("Histogram::merge: geometry mismatch");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    samples_ += other.samples_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = 0;
}

void
Histogram::dump(std::ostream &os, const std::string &label) const
{
    os << label << ": n=" << samples_ << " mean=" << std::fixed
       << std::setprecision(2) << mean() << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        if (i + 1 == buckets_.size())
            os << "  [" << i * bucketWidth_ << ", inf)";
        else
            os << "  [" << i * bucketWidth_ << ", "
               << (i + 1) * bucketWidth_ << ")";
        os << " : " << buckets_[i] << "\n";
    }
}

void
Distribution::record(double v)
{
    if (n_ == 0 || v < min_)
        min_ = v;
    if (n_ == 0 || v > max_)
        max_ = v;
    ++n_;
    sum_ += v;
    sumsq_ += v * v;
}

void
Distribution::merge(const Distribution &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (n_ == 0 || other.max_ > max_)
        max_ = other.max_;
    n_ += other.n_;
    sum_ += other.sum_;
    sumsq_ += other.sumsq_;
}

double
Distribution::mean() const
{
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
}

double
Distribution::stddev() const
{
    if (n_ < 2)
        return 0.0;
    const double m = mean();
    const double var = sumsq_ / static_cast<double>(n_) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::dump(std::ostream &os, const std::string &label) const
{
    os << label << ": n=" << n_ << " min=" << std::fixed
       << std::setprecision(2) << min() << " max=" << max()
       << " mean=" << mean() << " stddev=" << stddev() << "\n";
}

void
IntervalTracker::note(Tick now)
{
    const std::uint64_t idx = now / window_;
    if (idx != currentWindowIndex_) {
        if (currentWindowCount_ > peak_)
            peak_ = currentWindowCount_;
        currentWindowIndex_ = idx;
        currentWindowCount_ = 0;
    }
    ++currentWindowCount_;
    ++total_;
}

std::uint64_t
IntervalTracker::peakWindowCount() const
{
    return currentWindowCount_ > peak_ ? currentWindowCount_ : peak_;
}

double
IntervalTracker::averagePerWindow(Tick end_tick) const
{
    if (end_tick <= start_)
        return 0.0;
    const double windows = static_cast<double>(end_tick - start_) /
                           static_cast<double>(window_);
    return windows > 0.0 ? static_cast<double>(total_) / windows : 0.0;
}

void
IntervalTracker::reset(Tick start_tick)
{
    total_ = 0;
    currentWindowIndex_ = start_tick / window_;
    currentWindowCount_ = 0;
    peak_ = 0;
    start_ = start_tick;
}

void
Histogram::transfer(Archive &ar)
{
    ar.expect("histogram bucket width", bucketWidth_);
    ar.expect("histogram buckets", buckets_.size());
    for (std::uint64_t &c : buckets_)
        ar.u64(c);
    ar.u64(samples_);
    ar.u64(sum_);
}

void
Distribution::transfer(Archive &ar)
{
    ar.u64(n_);
    ar.f64(sum_);
    ar.f64(sumsq_);
    ar.f64(min_);
    ar.f64(max_);
}

void
IntervalTracker::transfer(Archive &ar)
{
    ar.expect("interval-tracker window", window_);
    ar.u64(start_);
    ar.u64(total_);
    ar.u64(currentWindowIndex_);
    ar.u64(currentWindowCount_);
    ar.u64(peak_);
}

} // namespace cgct
