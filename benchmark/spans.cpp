#include "spans.hpp"

#include <map>
#include <ostream>

namespace bench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double
SpanLog::now() const
{
    return secondsBetween(origin_, Clock::now());
}

int
SpanLog::open(const char *name, std::uint32_t sim)
{
    if (!enabled_)
        return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, sim, 0});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endS = now();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
SpanLog::addAggregate(const char *name, int parent, double seconds,
                      std::uint64_t calls)
{
    if (!enabled_ || parent < 0)
        return;
    const Span &p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(
        Span{name, p.startS, p.startS + seconds, parent, p.sim, calls});
}

void
SpanLog::writeChrome(std::ostream &os) const
{
    const std::streamsize old_precision = os.precision(15);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << s.startS * 1e6 << ",\"dur\":" << (s.endS - s.startS) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"sim\":" << s.sim;
        if (s.calls)
            os << ",\"aggregated_calls\":" << s.calls;
        os << "}}";
    }
    os << "\n]}\n";
    os.precision(old_precision);
}

std::vector<SpanLog::SelfTime>
SpanLog::selfTimes() const
{
    // Children never overlap each other (one thread, strictly nested
    // spans, and an aggregate is the only child of its parent), so the
    // covered part of a span is the sum of its children's durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            covered[static_cast<std::size_t>(s.parent)] += s.endS - s.startS;

    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SelfTime &t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        t.totalS += s.endS - s.startS;
        t.selfS += s.endS - s.startS - covered[i];
    }
    std::vector<SelfTime> out;
    for (auto &kv : by_name)
        out.push_back(kv.second);
    return out;
}

} // namespace bench
