/**
 * @file
 * Full-map directory interconnect (docs/TOPOLOGY.md): the non-broadcast
 * baseline for machines where flat snooping is untenable. Every request
 * travels point-to-point to the home memory controller of its line
 * (interleave-determined, as in mem/address_map.hpp), queues FCFS at
 * that controller's directory bank, and after a tag lookup snoops only
 * the processors the directory believes may hold a copy.
 *
 * The directory keeps two structures: a per-line full-map sharer vector,
 * updated at every lookup from the combined snoop outcome (exclusive
 * grant -> {requester}, shared grant -> += requester, write-back ->
 * -= requester), and the same sticky region-granular presence map the
 * hierarchy uses — needed because CGCT direct requests legally bypass
 * the directory (their region-acquisition broadcast went through it),
 * so the sharer vector alone would under-approximate after direct
 * fills. Silent clean evictions leave stale sharer bits; both maps are
 * conservative supersets, so the snoop set is always sufficient.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_table.hpp"
#include "interconnect/interconnect.hpp"

namespace cgct {

/** Full-map directory at the home memory controllers. */
class DirectoryInterconnect : public Interconnect
{
  public:
    DirectoryInterconnect(EventQueue &eq, const InterconnectParams &params,
                          const AddressMap &map, DataNetwork &data_net,
                          std::vector<MemoryController *> mem_ctrls,
                          const TopologyParams &topo,
                          std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void warmNote(const SystemRequest &req, bool gets_exclusive) override;

    void addStats(StatGroup &group) const override;

    void serialize(Serializer &s) const override;
    void deserialize(SectionReader &r) override;

    bool tracksPresence() const override { return true; }
    std::uint64_t presenceMask(Addr line) const override
    {
        return presenceOf(line);
    }
    bool tracksSharers() const override { return true; }
    std::uint64_t sharerMask(Addr line) const override
    {
        const std::uint64_t *bits = sharers_.find(line);
        return bits ? *bits : 0;
    }

    /** Corrupt directory state (invariant-checker injection test). */
    void corruptSharersForTest(Addr line, std::uint64_t mask)
    {
        sharers_.findOrInsert(line) = mask;
        presence_.findOrInsert(regionOf(line)) = mask;
    }

  private:
    /** Directory-bank tag lookup: snoop the sharer set and update it. */
    void lookup(const SystemRequest &req, ResponseFn fn);

    Addr regionOf(Addr line) const { return line & ~(regionBytes_ - 1); }

    std::uint64_t
    presenceOf(Addr line) const
    {
        const std::uint64_t *bits = presence_.find(regionOf(line));
        return bits ? *bits : 0;
    }

    /** Mask of the processors on chip @p chip. */
    std::uint64_t
    chipMask(unsigned chip) const
    {
        const unsigned lo = chip * topo_.cpusPerChip;
        std::uint64_t m = 0;
        for (unsigned c = lo; c < lo + topo_.cpusPerChip &&
                              c < topo_.numCpus; ++c)
            m |= 1ULL << c;
        return m;
    }

    /** Fold the resolved request into the sharer / presence maps. */
    void updateDirectory(const SystemRequest &req, bool gets_exclusive);

    TopologyParams topo_;
    std::uint64_t regionBytes_;

    /** FCFS arbitration cursor of each home directory bank. */
    std::vector<Tick> bankNextFree_;

    /** Line address -> full-map sharer vector. */
    AddrTable<std::uint64_t> sharers_;
    /** Region address -> sticky presence mask (covers direct fills). */
    AddrTable<std::uint64_t> presence_;
};

} // namespace cgct
