#include "snapshot/snapshot.hpp"

#include <string>
#include <utility>

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "workload/generator.hpp"

namespace cgct {

void
canonicalizeConfig(Serializer &s, const SystemConfig &c)
{
    s.u32(c.topology.numCpus);
    s.u32(c.topology.cpusPerChip);
    s.u32(c.topology.chipsPerSwitch);
    s.u32(c.topology.switchesPerBoard);
    // A Table 3 constant that was once a field writes its value at its
    // old slot, and each retired field its last default, at its old
    // width, so that no fingerprint moves: the interleave, the memory
    // size, ...
    s.u64(TopologyParams::interleaveBytes);
    s.u64(1ULL << 32);

    // ... the pipeline depth, fetch queue, decode and issue widths, ...
    s.u32(15);
    s.u32(16);
    s.u32(4);
    s.u32(4);
    s.u32(CoreParams::commitWidth);
    s.u32(32); // ... the issue window, ...
    s.u32(c.core.robEntries);
    s.u32(c.core.lsqEntries);
    s.u32(1); // ... the memory ports, ...
    s.u32(c.core.maxOutstandingMisses);

    for (const CacheParams *cp : {&c.l1i, &c.l1d, &c.l2}) {
        s.u64(cp->sizeBytes);
        s.u32(cp->associativity);
        s.u32(cp->lineBytes);
        s.u64(cp->latency);
    }

    s.b(c.prefetch.enabled);
    s.u32(PrefetchParams::streams);
    s.u32(PrefetchParams::runahead);
    s.b(true); // ... exclusive prefetching of store streams, ...

    using Ic = InterconnectParams;
    for (const Tick t :
         {Ic::snoopLatency, Ic::dramLatency, Ic::dramOverlappedExtra,
          Ic::xferOwnChip, Ic::xferSameSwitch, Ic::xferSameBoard,
          Ic::xferRemote, Ic::directOwnChip, Ic::directSameSwitch,
          Ic::directSameBoard, Ic::directRemote, Ic::busSlot,
          Ic::snoopTagOccupancy, Ic::memCtrlSlot,
          Ic::dataBytesPerSystemCycle})
        s.u64(t);
    s.u32(static_cast<std::uint32_t>(c.interconnect.topology));
    s.u64(Ic::localSnoopLatency);
    s.u64(Ic::dirLookupLatency);

    s.b(c.cgct.enabled);
    s.u64(c.cgct.regionBytes);
    s.u32(c.cgct.rcaSets);
    s.u32(c.cgct.rcaWays);
    s.b(c.cgct.selfInvalidation);
    s.b(c.cgct.favorEmptyRegions);
    s.b(c.cgct.threeStateProtocol);
    s.b(false); // ... the region prefetch hints, ...
    s.b(c.cgct.sharedPerChip);

    s.b(c.dma.enabled);
    s.u64(c.dma.meanInterval);
    s.u64(c.dma.bufferBytes);
    s.f64(c.dma.readFraction);
    s.u64(c.dma.targetBase);
    s.u64(c.dma.targetBytes);

    // ... and a top-level copy of the DMA buffer size, which always
    // equalled dma.bufferBytes.
    s.u64(c.dma.bufferBytes);
    // c.obs deliberately omitted: tracing and invariant checking never
    // perturb simulated behavior, so a plain image restores under full
    // instrumentation (docs/CONTRACTS.md, row 8).
}

std::uint64_t
snapshotFingerprint(const SystemConfig &config,
                    const std::string &profileName, const RunOptions &opts,
                    std::uint64_t schedule)
{
    Serializer s;
    canonicalizeConfig(s, config);
    s.str(profileName);
    s.u64(opts.opsPerCpu);
    s.u64(opts.warmupOps);
    s.u64(opts.seed);
    s.u64(schedule);
    return xxhash64(s.buffer().data(), s.size());
}

std::vector<std::uint8_t>
saveImage(System &sys, SyntheticWorkload &workload, std::uint64_t fingerprint,
          std::size_t &image_bytes)
{
    Serializer s;
    s.reserve(image_bytes + image_bytes / 16);
    beginSnapshotFile(s, fingerprint);
    Archive ar(s);
    ar.section("workload", [&] { workload.transfer(ar); });
    sys.transfer(ar);
    image_bytes = s.size();
    return std::move(s).take();
}

void
restoreImage(System &sys, SyntheticWorkload &workload,
             std::vector<std::uint8_t> &&image, std::uint64_t fingerprint,
             const std::string &label)
{
    Deserializer d;
    const std::string err = d.openBytes(std::move(image), label);
    if (!err.empty())
        fatal("restore: %s", err.c_str());
    if (d.fingerprint() != fingerprint)
        fatal("restore: %s belongs to another run (fingerprint %016llx, "
              "this run's is %016llx)",
              label.c_str(), static_cast<unsigned long long>(d.fingerprint()),
              static_cast<unsigned long long>(fingerprint));

    Archive ar(d);
    ar.section("workload", [&] { workload.transfer(ar); });
    sys.transfer(ar);
}

} // namespace cgct
