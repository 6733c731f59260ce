/**
 * @file
 * The run flags cgct_sim and cgct_sweep share: `--ops`, `--warmup`,
 * `--nodes`, `--topology`, `--sample`, `--window-ops` and `--warm-mode`,
 * bound and validated once so both tools spell, default and refuse them
 * the same way (docs/SWEEP.md).
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/argparse.hpp"
#include "common/config.hpp"
#include "sim/sampling.hpp"

namespace cgct {

/** The shared run flags, holding their defaults until parsed. */
struct RunFlags {
    std::uint64_t ops = 120000;
    std::uint64_t warmup = 0;
    unsigned nodes = 4;
    std::string topology = "bus";
    std::uint64_t sample = 0;
    std::uint64_t windowOps = 1000;
    std::string warmMode = "functional";

    void add(ArgParser &parser);

    /**
     * Refuse, before any output, what no run can honor: `--ops 0` (but
     * for a @p replay, whose trace sets its length), an unknown
     * `--topology` or `--warm-mode`, and `--sample` windows that do not
     * fit in the post-warmup ops. Prints one line naming the flag,
     * "<tool>: ...", and returns false.
     */
    bool validate(const char *tool, bool replay = false);

    /** `--warmup`, or a fifth of @p run_ops when it is 0. */
    std::uint64_t
    warmupFor(std::uint64_t run_ops) const
    {
        return warmup ? warmup : run_ops / 5;
    }

    /** Set `--nodes` and `--topology` in @p config (after validate()). */
    void
    configure(SystemConfig &config) const
    {
        config.topology.numCpus = nodes;
        config.interconnect.topology = topologyKind_;
    }

    /** `--sample`, `--window-ops` and `--warm-mode` (after validate()). */
    SamplingOptions
    sampling() const
    {
        return {.windows = sample,
                .windowOps = windowOps,
                .warmMode = warmKind_};
    }

  private:
    TopologyKind topologyKind_ = TopologyKind::Bus;
    WarmMode warmKind_ = WarmMode::Functional;
};

} // namespace cgct
