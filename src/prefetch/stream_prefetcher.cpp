#include "prefetch/stream_prefetcher.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

StreamPrefetcher::StreamPrefetcher(const PrefetchParams &params,
                                   unsigned line_bytes)
    : params_(params), lineBytes_(line_bytes),
      streams_(PrefetchParams::streams)
{
}

StreamPrefetcher::Stream *
StreamPrefetcher::findMatch(Addr line, int &direction_out)
{
    for (auto &s : streams_) {
        if (!s.valid)
            continue;
        const Addr up = s.lastLine + lineBytes_;
        const Addr down = s.lastLine - lineBytes_;
        if (line == s.lastLine) {
            direction_out = s.direction;
            return &s;
        }
        if (line == up) {
            direction_out = 1;
            return &s;
        }
        if (line == down) {
            direction_out = -1;
            return &s;
        }
    }
    return nullptr;
}

StreamPrefetcher::Stream *
StreamPrefetcher::allocate()
{
    Stream *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid)
            return &s;
        if (s.lastUse < victim->lastUse)
            victim = &s;
    }
    return victim;
}

void
StreamPrefetcher::observe(Addr line_addr, bool is_store, bool was_miss,
                          std::vector<PrefetchCandidate> &out)
{
    if (!params_.enabled)
        return;
    ++useClock_;

    int direction = 1;
    Stream *s = findMatch(line_addr, direction);
    if (s) {
        s->lastUse = useClock_;
        s->storeStream = s->storeStream || is_store;
        if (line_addr == s->lastLine)
            return; // Same line re-accessed; nothing new to learn.
        // Signed line-size step: plain `direction * lineBytes_` would be
        // int * unsigned and wrap instead of going negative.
        const std::int64_t step = static_cast<std::int64_t>(direction) *
                                  static_cast<std::int64_t>(lineBytes_);
        if (!s->confirmed) {
            s->confirmed = true;
            s->direction = direction;
            s->nextPrefetch = line_addr + static_cast<Addr>(step);
            ++stats_.streamsConfirmed;
        } else if (direction != s->direction) {
            // Direction flip: retrain from here.
            s->confirmed = false;
            s->lastLine = line_addr;
            return;
        }
        s->lastLine = line_addr;

        // Keep the stream PrefetchParams::runahead lines ahead of the
        // demand, emitting at most a runahead's worth per observation.
        const Addr target =
            line_addr + static_cast<Addr>(step *
                                          static_cast<std::int64_t>(
                                              PrefetchParams::runahead));
        for (unsigned i = 0; i <= PrefetchParams::runahead; ++i) {
            const bool behind =
                (direction > 0 && s->nextPrefetch <= target &&
                 s->nextPrefetch > line_addr) ||
                (direction < 0 && s->nextPrefetch >= target &&
                 s->nextPrefetch < line_addr);
            if (!behind)
                break;
            PrefetchCandidate c;
            c.lineAddr = s->nextPrefetch;
            c.exclusive = s->storeStream;
            out.push_back(c);
            ++stats_.prefetchesRequested;
            s->nextPrefetch += static_cast<Addr>(step);
        }
        // If the demand stream jumped past the prefetch cursor, resync.
        if ((direction > 0 && s->nextPrefetch <= line_addr) ||
            (direction < 0 && s->nextPrefetch >= line_addr)) {
            s->nextPrefetch = line_addr + static_cast<Addr>(step);
        }
        return;
    }

    // No matching stream: allocate a training entry on misses only.
    if (!was_miss)
        return;
    s = allocate();
    *s = Stream{};
    s->valid = true;
    s->storeStream = is_store;
    s->lastLine = line_addr;
    s->lastUse = useClock_;
    ++stats_.streamsAllocated;
}

void
StreamPrefetcher::transfer(Archive &ar)
{
    ar.expect("prefetcher streams",
              static_cast<std::uint32_t>(streams_.size()));
    for (Stream &st : streams_) {
        ar.b(st.valid);
        ar.b(st.confirmed);
        ar.b(st.storeStream);
        ar.u64(st.direction);
        ar.u64(st.lastLine);
        ar.u64(st.nextPrefetch);
        ar.u64(st.lastUse);
    }
    ar.u64(useClock_);
    ar.counters(stats_);
}

} // namespace cgct
