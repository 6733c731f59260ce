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
 * updated at every resolution from the line snoop outcome (exclusive
 * grant -> {requester}, shared grant -> += requester, write-back ->
 * -= requester), and the same sticky region-granular presence map the
 * hierarchy uses (FilteredInterconnect) — needed because CGCT direct
 * requests legally bypass the directory (their region-acquisition
 * broadcast went through it), so the sharer vector alone would
 * under-approximate after direct fills. Silent clean evictions leave stale sharer bits; both maps are
 * conservative supersets, so the snoop set is always sufficient.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_table.hpp"
#include "interconnect/interconnect.hpp"

namespace cgct {

/** Full-map directory at the home memory controllers. */
class DirectoryInterconnect : public FilteredInterconnect
{
  public:
    DirectoryInterconnect(EventQueue &eq, const InterconnectParams &params,
                          const AddressMap &map, DataNetwork &data_net,
                          std::vector<MemoryController *> mem_ctrls,
                          const TopologyParams &topo,
                          std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void addStats(StatGroup &group) const override;

    void transfer(Archive &ar) override;

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
        corruptPresenceForTest(line, mask);
    }

  protected:
    /** The directory state machine: fold the resolution into the sharer
     *  vector, then note presence. */
    void noteResolution(const SystemRequest &req,
                        bool gets_exclusive) override;

  private:
    /** Directory-bank tag lookup: compute the snoop set and resolve. */
    void lookup(const SystemRequest &req, ResponseFn fn);

    /** FCFS arbitration cursor of each home directory bank. */
    std::vector<Tick> bankNextFree_;

    /** Line address -> full-map sharer vector. */
    AddrTable<std::uint64_t> sharers_;
};

} // namespace cgct
