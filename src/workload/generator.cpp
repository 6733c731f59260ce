#include "workload/generator.hpp"

#include "snapshot/serializer.hpp"

namespace cgct {

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     unsigned num_cpus,
                                     std::uint64_t ops_per_cpu,
                                     std::uint64_t seed)
    : profile_(profile), numCpus_(num_cpus), opsPerCpu_(ops_per_cpu),
      pauseAt_(ops_per_cpu), cpus_(num_cpus),
      rwOwner_(profile.rwObjects, kInvalidCpu),
      codeDraws_(segDraws(profile.codeBytes, profile.codeZipf,
                          profile.codeRefsPerLine)),
      roDraws_(segDraws(profile.sharedROBytes, profile.zipf,
                        profile.refsPerLine)),
      privDraws_(segDraws(profile.privateBytes, profile.zipf,
                          profile.refsPerLine)),
      seqRun_(1.0 / profile.seqRunLines),
      gap_(1.0 / (profile.avgGap + 1.0)),
      rwObject_(profile.rwObjects, profile.zipf)
{
    profile_.validate();
    Rng master(seed);
    for (unsigned i = 0; i < num_cpus; ++i)
        cpus_[i].rng = master.fork(i + 1);

    // Precompute the op index at which each phase ends.
    double acc = 0.0;
    for (const auto &ph : profile_.phases) {
        acc += ph.fraction;
        phaseEnd_.push_back(
            static_cast<std::uint64_t>(acc * static_cast<double>(
                                                 ops_per_cpu)));
    }
    phaseEnd_.back() = ops_per_cpu; // Guard against rounding.
}

void
SyntheticWorkload::setPauseAt(std::uint64_t ops)
{
    pauseAt_ = std::min(ops, opsPerCpu_);
}

void
SyntheticWorkload::transfer(Archive &ar)
{
    ar.expect("workload profile", profile_.name);
    ar.expect("workload CPUs", numCpus_);
    ar.expect("workload ops per CPU", opsPerCpu_);
    for (CpuState &cs : cpus_) {
        cs.rng.transfer(ar);
        ar.u64(cs.ops);
        for (SegCursor *cur : {&cs.code, &cs.ro, &cs.priv}) {
            ar.u64(cur->addr);
            ar.u32(cur->runLeft);
            ar.u32(cur->repeatLeft);
        }
        ar.u64(cs.dcbzLeft);
        ar.u64(cs.dcbzAddr);
        ar.u64(cs.dcbzPage);
        ar.b(cs.rmwPending);
        ar.u64(cs.rmwAddr);
    }
    ar.expect("shared objects", static_cast<std::uint64_t>(rwOwner_.size()));
    for (CpuId &owner : rwOwner_)
        ar.u64(owner);
}

std::uint64_t
SyntheticWorkload::minOpsDrawn() const
{
    std::uint64_t m = UINT64_MAX;
    for (const auto &cs : cpus_)
        m = std::min(m, cs.ops);
    return m;
}

const PhaseSpec &
SyntheticWorkload::phaseFor(const CpuState &cs) const
{
    for (std::size_t i = 0; i < phaseEnd_.size(); ++i) {
        if (cs.ops < phaseEnd_[i])
            return profile_.phases[i];
    }
    return profile_.phases.back();
}

SyntheticWorkload::SegDraws
SyntheticWorkload::segDraws(std::uint64_t size, double zipf,
                            double refs_per_line)
{
    return {ZipfDist(std::max<std::uint64_t>(1, size / kChunkBytes), zipf),
            GeometricDist(1.0 / refs_per_line)};
}

Addr
SyntheticWorkload::pickStreaming(CpuState &cs, SegCursor &cur, Addr base,
                                 std::uint64_t size, const SegDraws &draws)
{
    // Temporal locality: revisit the current line several times (varying
    // the word offset) before moving on.
    if (cur.repeatLeft > 0) {
        --cur.repeatLeft;
        return cur.addr + cs.rng.nextBelow(kLine / 8) * 8;
    }
    cur.repeatLeft = static_cast<std::uint32_t>(draws.repeat(cs.rng) - 1);

    if (cur.runLeft > 0 && cur.addr + kLine < base + size) {
        cur.addr += kLine;
        --cur.runLeft;
        return cur.addr;
    }
    // Jump: a Zipf-hot chunk, then a fresh sequential run inside it.
    const std::uint64_t chunk = draws.chunk(cs.rng);
    const std::uint64_t line_in_chunk =
        cs.rng.nextBelow(kChunkBytes / kLine);
    cur.addr = base + chunk * kChunkBytes + line_in_chunk * kLine;
    cur.runLeft = static_cast<std::uint32_t>(seqRun_(cs.rng));
    return cur.addr;
}

bool
SyntheticWorkload::next(CpuId cpu, CpuOp &op)
{
    CpuState &cs = cpus_[static_cast<unsigned>(cpu)];
    if (cs.ops >= pauseAt_)
        return false;
    const PhaseSpec &ph = phaseFor(cs);
    ++cs.ops;

    op = CpuOp{};
    op.gap = static_cast<std::uint32_t>(gap_(cs.rng) - 1);

    // Finish an in-progress DCBZ page-zeroing burst first.
    if (cs.dcbzLeft > 0) {
        op.kind = CpuOpKind::Dcbz;
        op.addr = cs.dcbzAddr;
        op.gap = 0;
        cs.dcbzAddr += kLine;
        --cs.dcbzLeft;
        return true;
    }

    // A queued read-modify-write store follows its load immediately.
    if (cs.rmwPending) {
        cs.rmwPending = false;
        op.kind = CpuOpKind::Store;
        op.addr = cs.rmwAddr;
        op.gap = 1;
        return true;
    }

    Rng &rng = cs.rng;

    if (rng.chance(ph.pIfetch)) {
        op.kind = CpuOpKind::Ifetch;
        op.addr = pickStreaming(cs, cs.code, kCodeBase,
                                profile_.codeBytes, codeDraws_);
        return true;
    }

    // Data operation.
    if (rng.chance(ph.pDcbzBurst)) {
        // Zero a recently-freed page in this CPU's allocation arena
        // (AIX-style); the 2 MB arena recycles quickly enough that its
        // regions are often still tracked.
        const std::uint64_t arena_pages = (2ULL << 20) / profile_.pageBytes;
        cs.dcbzAddr = kDcbzBase +
                      static_cast<Addr>(cpu) * kPerCpuStride +
                      (cs.dcbzPage % arena_pages) * profile_.pageBytes;
        ++cs.dcbzPage;
        cs.dcbzLeft = profile_.pageBytes / kLine;
        op.kind = CpuOpKind::Dcbz;
        op.addr = cs.dcbzAddr;
        op.gap = 0;
        cs.dcbzAddr += kLine;
        --cs.dcbzLeft;
        return true;
    }

    if (rng.chance(ph.pDcbf)) {
        // Flush something recently touched in the private segment.
        op.kind = CpuOpKind::Dcbf;
        op.addr = cs.priv.addr ? cs.priv.addr
                               : kPrivateBase +
                                     static_cast<Addr>(cpu) * kPerCpuStride;
        return true;
    }

    const double seg = rng.nextDouble();
    if (seg < ph.pSharedRW && !rwOwner_.empty()) {
        // Migratory read-write object access.
        const std::uint64_t obj = rwObject_(rng);
        if (rng.chance(ph.pMigrate))
            rwOwner_[obj] = cpu;
        const bool owned = rwOwner_[obj] == cpu;
        const Addr obj_base = kSharedRWBase +
                              static_cast<Addr>(obj) *
                                  profile_.rwObjectBytes;
        const std::uint64_t lines = profile_.rwObjectBytes / kLine;
        op.addr = obj_base + rng.nextBelow(lines) * kLine;
        if (owned && rng.chance(ph.pStoreOwned)) {
            // Read-modify-write: load now, dependent store next op.
            op.kind = CpuOpKind::Load;
            op.dependent = true;
            cs.rmwPending = true;
            cs.rmwAddr = op.addr;
        } else {
            op.kind = CpuOpKind::Load;
            op.dependent = rng.chance(ph.pDependent);
        }
        return true;
    }

    if (seg < ph.pSharedRW + ph.pSharedRO) {
        op.addr = pickStreaming(cs, cs.ro, kSharedROBase,
                                profile_.sharedROBytes, roDraws_);
        op.kind = rng.chance(ph.pStoreSharedRO) ? CpuOpKind::Store
                                                : CpuOpKind::Load;
        op.dependent = op.kind == CpuOpKind::Load &&
                       rng.chance(ph.pDependent);
        return true;
    }

    // Private access.
    op.addr = pickStreaming(cs, cs.priv,
                            kPrivateBase +
                                static_cast<Addr>(cpu) * kPerCpuStride,
                            profile_.privateBytes, privDraws_);
    op.kind = rng.chance(ph.pStorePrivate) ? CpuOpKind::Store
                                           : CpuOpKind::Load;
    op.dependent = op.kind == CpuOpKind::Load && rng.chance(ph.pDependent);
    return true;
}

} // namespace cgct
