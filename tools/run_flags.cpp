#include "run_flags.hpp"

#include <cstdio>

namespace cgct {

void
RunFlags::add(ArgParser &parser)
{
    parser.addU64("ops", &ops,
                  "memory operations per processor per run");
    parser.addU64("warmup", &warmup,
                  "warmup ops per processor (0 = ops/5; a replay takes "
                  "ops from its trace header)");
    parser.addUnsigned("nodes", &nodes,
                       "processors per run (4, 16, 64, ... up to 64; "
                       "docs/TOPOLOGY.md); in a sweep, a non-default "
                       "value appends topology columns to the CSV");
    parser.addString("topology", &topology,
                     "interconnect organization: bus (flat broadcast), "
                     "hier (two-level snoop hierarchy) or dir (full-map "
                     "directory); see docs/TOPOLOGY.md");
    parser.addU64("sample", &sample,
                  "statistical sampling: fast-forward under --warm-mode "
                  "and measure N detailed windows with 95% CIs instead "
                  "of a full run (docs/SAMPLING.md); 0 = full-detail "
                  "run. A sampled sweep runs one seed per cell and its "
                  "rows gain the CI columns");
    parser.addU64("window-ops", &windowOps,
                  "detailed ops per CPU in each sampled window");
    parser.addString("warm-mode", &warmMode,
                     "state warming between windows: functional (fast) "
                     "or detailed (reference)");
}

bool
RunFlags::validate(const char *tool, bool replay)
{
    const std::uint64_t warm = warmupFor(ops);
    const std::uint64_t span = ops > warm ? ops - warm : 0;
    if (ops == 0 && !replay)
        std::fprintf(stderr, "%s: --ops 0 runs nothing\n", tool);
    else if (!parseTopologyKind(topology, &topologyKind_))
        std::fprintf(stderr, "%s: --topology must be bus, hier or dir\n",
                     tool);
    else if (!parseWarmMode(warmMode, &warmKind_))
        std::fprintf(stderr,
                     "%s: --warm-mode must be functional or detailed\n",
                     tool);
    else if (sample && windowOps == 0)
        std::fprintf(stderr, "%s: --window-ops must be >= 1\n", tool);
    else if (sample && windowOps > span / sample)
        std::fprintf(stderr,
                     "%s: --sample %llu windows of --window-ops %llu do "
                     "not fit in the %llu post-warmup ops\n",
                     tool, static_cast<unsigned long long>(sample),
                     static_cast<unsigned long long>(windowOps),
                     static_cast<unsigned long long>(span));
    else
        return true;
    return false;
}

} // namespace cgct
