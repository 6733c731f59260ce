/**
 * @file
 * The drained run every restore test shares: a generated run paused at
 * a fixed op interval, saving the sampler's image (saveImage) at each
 * drain, optionally started from one of those images (restoreImage).
 * Contract row 5 (test_contracts) and the directed SnapshotRestore cases
 * (test_snapshot_restore) both drive it.
 */

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {

/** Builds the System of a run over its workload. */
using MakeSystem = std::function<std::unique_ptr<System>(OpSource &)>;

/** The plain System of @p config. */
inline MakeSystem
plainSystem(const SystemConfig &config)
{
    return [config](OpSource &ops) {
        return std::make_unique<System>(config, ops);
    };
}

/** A generated run under a drain schedule: opts of profile on the
 *  System make builds, drained every interval ops per CPU. */
struct Schedule {
    SystemConfig config;
    MakeSystem make;
    const WorkloadProfile *profile = nullptr;
    RunOptions opts;
    std::uint64_t interval = 0;

    std::uint64_t
    fingerprint() const
    {
        return snapshotFingerprint(config, profile->name, opts, interval);
    }
};

/** What a run through its schedule leaves: saveImage's image and the
 *  measurement start at each drain, then the serializeState and
 *  encodeRunResult bytes, the encodeRunResult bytes alone, and the
 *  dumpStats text, at the end. */
struct Drains {
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<Tick> measureStarts;
    std::string end;
    std::string result;
    std::string stats;
};

/**
 * Run @p sch to the end, saving an image at each drain. With a
 * non-null @p image the run starts from that image instead, restored
 * (restoreImage) into a fresh System, drained at op @p from with its
 * measurement started at @p measure_start (0: warmup not over yet);
 * saving straight after the restore must give back the image. The
 * warmup check is re-armed each phase until it fires, as in one full
 * run.
 */
inline Drains
runSchedule(const Schedule &sch,
            const std::vector<std::uint8_t> *image = nullptr,
            std::uint64_t from = 0, Tick measure_start = 0)
{
    const RunOptions &opts = sch.opts;
    SyntheticWorkload w(*sch.profile, sch.config.topology.numCpus,
                        opts.opsPerCpu, opts.seed);
    const std::unique_ptr<System> sys = sch.make(w);
    std::size_t image_bytes = 0;
    if (image) {
        restoreImage(*sys, w, std::vector<std::uint8_t>(*image),
                     sch.fingerprint(), "image at op " + std::to_string(from));
        EXPECT_EQ(saveImage(*sys, w, sch.fingerprint(), image_bytes), *image)
            << "save after restore must give back the image";
    }
    const bool warms = opts.warmupOps && opts.warmupOps < opts.opsPerCpu;
    Drains out;
    for (std::uint64_t done = from;;) {
        const std::uint64_t next =
            std::min(done + sch.interval, opts.opsPerCpu);
        w.setPauseAt(next);
        runPhase(*sys, /*resume=*/done > 0, opts.maxEvents, [&] {
            if (warms && measure_start == 0)
                scheduleWarmupCheck(
                    *sys, [&w] { return w.minOpsDrawn(); }, opts.warmupOps,
                    &measure_start);
        });
        if (next == opts.opsPerCpu)
            break;
        done = next;
        out.images.push_back(
            saveImage(*sys, w, sch.fingerprint(), image_bytes));
        out.measureStarts.push_back(measure_start);
    }
    Serializer state;
    sys->serializeState(state);
    Serializer result;
    encodeRunResult(result, collectRunResult(*sys, sch.profile->name,
                                             opts.seed, measure_start));
    out.result.assign(result.buffer().begin(), result.buffer().end());
    out.end.assign(state.buffer().begin(), state.buffer().end());
    out.end += out.result;
    std::ostringstream stats;
    sys->dumpStats(stats);
    out.stats = stats.str();
    return out;
}

/**
 * @p straight is @p sch run straight through; restore @p sch from each
 * of its drain images: every restored run must reach the straight run's
 * end bytes and save the straight run's later images byte for byte.
 */
inline void
expectRestoresMatch(const Schedule &sch, const Drains &straight)
{
    ASSERT_FALSE(straight.images.empty());
    for (std::size_t i = 0; i < straight.images.size(); ++i) {
        const std::uint64_t at = (i + 1) * sch.interval;
        SCOPED_TRACE("restoring the image at op " + std::to_string(at));
        const Drains restored = runSchedule(sch, &straight.images[i], at,
                                            straight.measureStarts[i]);
        EXPECT_EQ(restored.end, straight.end)
            << "restored run diverged from the continued run";
        EXPECT_TRUE(std::equal(restored.images.begin(), restored.images.end(),
                               straight.images.begin() + i + 1,
                               straight.images.end()))
            << "a later image differs";
    }
}

} // namespace cgct
