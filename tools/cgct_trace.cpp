/**
 * @file
 * cgct_trace — inspect and verify workload traces
 * (docs/TRACE_FORMAT.md). `cgct_sim --capture` records them.
 *
 *   cgct_trace info run.trace
 *   cgct_trace verify run.trace
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/argparse.hpp"
#include "workload/trace.hpp"

using namespace cgct;

namespace {

int
cmdInfo(const std::string &path)
{
    const TraceInfo info = readTraceInfo(path);
    std::printf("trace               %s\n", path.c_str());
    std::printf("format version      %u\n", info.version);
    std::printf("lanes               %u\n", info.numLanes);
    std::printf("declared ops/lane   %llu\n",
                static_cast<unsigned long long>(info.opsDeclared));
    std::printf("file size           %llu bytes\n",
                static_cast<unsigned long long>(info.fileBytes));
    std::printf("trace id            %016llx\n",
                static_cast<unsigned long long>(info.traceId));
    std::printf("lane directory:\n");
    std::printf("  %-5s %12s %12s  %s\n", "lane", "bytes", "mem ops",
                "payload hash");
    for (std::uint32_t i = 0; i < info.numLanes; ++i) {
        const auto &l = info.lanes[i];
        std::printf("  %-5u %12llu %12llu  %016llx\n", i,
                    static_cast<unsigned long long>(l.payloadBytes),
                    static_cast<unsigned long long>(l.memOps),
                    static_cast<unsigned long long>(l.payloadHash));
    }

    const TraceScan scan = scanTrace(path);
    std::printf("memory records      %llu\n",
                static_cast<unsigned long long>(scan.memOps));
    if (scan.memOps) {
        std::printf("address range       [0x%llx, 0x%llx]\n",
                    static_cast<unsigned long long>(scan.minAddr),
                    static_cast<unsigned long long>(scan.maxAddr));
        std::printf("mean gap            %.2f instructions\n",
                    static_cast<double>(scan.gapSum) /
                        static_cast<double>(scan.memOps));
        std::printf("composition:\n");
        for (unsigned k = 0; k < 6; ++k) {
            if (!scan.kindCount[k])
                continue;
            std::printf(
                "  %-8s %10llu (%.1f%%)\n",
                std::string(cpuOpKindName(static_cast<CpuOpKind>(k)))
                    .c_str(),
                static_cast<unsigned long long>(scan.kindCount[k]),
                100.0 * static_cast<double>(scan.kindCount[k]) /
                    static_cast<double>(scan.memOps));
        }
    }
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const std::string err = verifyTrace(path);
    if (!err.empty()) {
        std::fprintf(stderr, "cgct_trace: verify failed: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("%s: OK (header, lane directory, payload hashes, and "
                "every record check out)\n",
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string command;
    std::string path;

    ArgParser parser(
        "cgct_trace",
        "Inspect or verify a v2 trace file (docs/TRACE_FORMAT.md); "
        "cgct_sim --capture records one.\n"
        "commands: info <file>, verify <file>");
    parser.addPositional("command", &command, "info | verify", true);
    parser.addPositional("file", &path, "trace file", true);

    std::string error;
    const bool parsed = parser.parse(argc, argv, &error);
    if (parsed && parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }
    // Name an unknown command before any complaint about its operands.
    int (*run)(const std::string &) = nullptr;
    if (command == "info") {
        run = cmdInfo;
    } else if (command == "verify") {
        run = cmdVerify;
    } else if (!command.empty()) {
        std::fprintf(stderr, "cgct_trace: unknown command '%s'\n",
                     command.c_str());
        return 1;
    }
    if (!parsed) {
        std::fprintf(stderr, "cgct_trace: %s (try --help)\n",
                     error.c_str());
        return 1;
    }
    return run(path);
}
