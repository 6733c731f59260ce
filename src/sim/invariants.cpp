#include "sim/invariants.hpp"

#include <cstdio>
#include <unordered_set>

#include "common/log.hpp"
#include "core/cgct_controller.hpp"
#include "event/event_queue.hpp"
#include "interconnect/interconnect.hpp"
#include "sim/node.hpp"

namespace cgct {

namespace {

std::string
hexAddr(Addr a)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

} // namespace

InvariantChecker::InvariantChecker(const SystemConfig &config,
                                   std::vector<const Node *> nodes)
    : config_(config), nodes_(std::move(nodes))
{
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const auto *ctrl =
            dynamic_cast<const CgctController *>(nodes_[i]->tracker());
        if (!ctrl)
            continue; // Baseline / RegionScout: nothing to cross-check.
        Group *group = nullptr;
        for (Group &g : groups_) {
            if (g.ctrl == ctrl) {
                group = &g;
                break;
            }
        }
        if (!group) {
            groups_.push_back(Group{ctrl, {}});
            group = &groups_.back();
        }
        group->nodeIdx.push_back(i);
    }
}

std::string
InvariantChecker::checkCoverage(Addr addr) const
{
    if (!interconnect_ || !interconnect_->tracksPresence())
        return {};

    const std::uint64_t rbytes = config_.cgct.regionBytes;
    const Addr region = alignDown(addr, rbytes);
    const bool dir = interconnect_->tracksSharers();

    // F/G: every line the L2 arrays actually hold must be covered by
    // the topology's conservative tracking, per holder. numCpus <= 64
    // is enforced by config.validate() for tracked topologies.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        std::string err;
        nodes_[i]->l2().array().forEachInRange(
            region, rbytes, [&](const CacheLine &line) {
                if (!err.empty())
                    return;
                const std::uint64_t pres =
                    interconnect_->presenceMask(line.lineAddr);
                const std::uint64_t bit = 1ULL << i;
                if (dir) {
                    const std::uint64_t cover =
                        pres | interconnect_->sharerMask(line.lineAddr);
                    if (!(cover & bit))
                        err = "cpu" + std::to_string(i) + " holds line " +
                              hexAddr(line.lineAddr) +
                              " but the directory covers neither its "
                              "sharer vector nor region presence";
                } else if (!(pres & bit)) {
                    err = "cpu" + std::to_string(i) + " holds line " +
                          hexAddr(line.lineAddr) +
                          " outside the region presence mask";
                }
            });
        if (!err.empty())
            return err;
    }

    // F: a chip with a valid RCA entry can direct-fill any line of the
    // region without a traversal, so presence must already cover every
    // core of that chip.
    for (const Group &g : groups_) {
        if (!g.ctrl->rca().peek(region))
            continue;
        const std::uint64_t pres = interconnect_->presenceMask(region);
        for (std::size_t i : g.nodeIdx) {
            if (!(pres & (1ULL << i)))
                return "cpu" + std::to_string(i) +
                       "'s chip holds an RCA entry for region " +
                       hexAddr(region) +
                       " outside the region presence mask";
        }
    }
    return {};
}

std::string
InvariantChecker::checkRegion(Addr addr) const
{
    std::string cover = checkCoverage(addr);
    if (!cover.empty())
        return cover;
    if (groups_.empty())
        return {};

    const std::uint64_t rbytes = config_.cgct.regionBytes;
    const Addr region = alignDown(addr, rbytes);

    // Ground truth: what each node's L2 actually holds in the region.
    // Shared is the only line state that cannot produce dirty data; E can
    // silently become M, so it counts as modifiable.
    struct View {
        std::uint32_t lines = 0;
        bool modifiable = false;
    };
    std::vector<View> views(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i]->l2().array().forEachInRange(
            region, rbytes, [&views, i](const CacheLine &line) {
                ++views[i].lines;
                if (line.state != LineState::Shared)
                    views[i].modifiable = true;
            });
    }

    for (const Group &g : groups_) {
        std::uint32_t own_lines = 0;
        bool own_modifiable = false;
        for (std::size_t i : g.nodeIdx) {
            own_lines += views[i].lines;
            own_modifiable = own_modifiable || views[i].modifiable;
        }
        std::uint32_t ext_lines = 0;
        bool ext_modifiable = false;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            bool own = false;
            for (std::size_t j : g.nodeIdx)
                own = own || j == i;
            if (own)
                continue;
            ext_lines += views[i].lines;
            ext_modifiable = ext_modifiable || views[i].modifiable;
        }

        const RegionEntry *entry = g.ctrl->rca().peek(region);
        const RegionState state =
            entry ? entry->state : RegionState::Invalid;
        const std::string who =
            "cpu" + std::to_string(g.nodeIdx.front()) + " region " +
            hexAddr(region) + " (" + std::string(regionStateName(state)) +
            ")";

        // E: RCA inclusion — a cached line needs a region entry.
        if (own_lines > 0 && !entry) {
            return who + ": " + std::to_string(own_lines) +
                   " lines cached with no RCA entry";
        }
        // D: the entry's line count is exact.
        if (entry && entry->lineCount != own_lines) {
            return who + ": entry line count " +
                   std::to_string(entry->lineCount) + " but L2 holds " +
                   std::to_string(own_lines);
        }
        // A: exclusive states assert no external copies at all.
        if (isRegionExclusive(state) && ext_lines > 0) {
            return who + ": exclusive but " + std::to_string(ext_lines) +
                   " lines cached externally";
        }
        // B: externally-clean states assert external copies are
        // unmodified (and not silently modifiable).
        if (isExternallyClean(state) && ext_modifiable) {
            return who + ": externally clean but an external node holds "
                         "an E/M/O line";
        }
        // C: locally-clean states assert this chip's copies are
        // unmodified (and not silently modifiable).
        if (state != RegionState::Invalid && !isLocallyDirty(state) &&
            own_modifiable) {
            return who + ": locally clean but holds an E/M/O line";
        }
    }
    return {};
}

std::string
InvariantChecker::checkAll() const
{
    // L1 inclusion: every valid L1 line is also in its node's L2.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &node = *nodes_[i];
        for (const Cache *l1 : {&node.l1i(), &node.l1d()}) {
            std::string err;
            l1->array().forEachValid([&](const CacheLine &line) {
                if (err.empty() && !node.l2().peek(line.lineAddr))
                    err = "cpu" + std::to_string(i) + " " + l1->name() +
                          " holds line " + hexAddr(line.lineAddr) +
                          " not in its L2";
            });
            if (!err.empty())
                return err;
        }
    }

    const bool tracked =
        interconnect_ && interconnect_->tracksPresence();
    if (groups_.empty() && !tracked)
        return {};

    const std::uint64_t rbytes = config_.cgct.regionBytes;
    std::unordered_set<Addr> regions;
    for (const Group &g : groups_) {
        g.ctrl->rca().forEachValid(
            [&regions](const RegionEntry &entry) {
                regions.insert(entry.regionAddr);
            });
    }
    for (const Node *node : nodes_) {
        node->l2().array().forEachValid(
            [&regions, rbytes](const CacheLine &line) {
                regions.insert(alignDown(line.lineAddr, rbytes));
            });
    }

    for (Addr region : regions) {
        std::string err = checkRegion(region);
        if (!err.empty())
            return err;
    }
    return {};
}

void
InvariantChecker::noteCheckpoint(const std::string &path, Tick tick)
{
    lastCheckpointPath_ = path;
    lastCheckpointTick_ = tick;
    haveCheckpoint_ = true;
}

void
InvariantChecker::onTransition(Addr addr, const char *site)
{
    ++checksRun_;
    const std::string err = checkRegion(addr);
    if (err.empty())
        return;
    const unsigned long long tick =
        eq_ ? static_cast<unsigned long long>(eq_->now()) : 0ULL;
    if (haveCheckpoint_) {
        fatal("region invariant violated after %s at tick %llu: %s\n"
              "  nearest checkpoint: %s (tick %llu) — replay with "
              "`cgct_sim --restore %s --trace out.jsonl "
              "--check-invariants`",
              site, tick, err.c_str(), lastCheckpointPath_.c_str(),
              static_cast<unsigned long long>(lastCheckpointTick_),
              lastCheckpointPath_.c_str());
    }
    fatal("region invariant violated after %s at tick %llu: %s", site,
          tick, err.c_str());
}

} // namespace cgct
