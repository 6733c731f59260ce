/**
 * @file
 * cgct_trace — record, inspect, and verify workload traces
 * (docs/TRACE_FORMAT.md).
 *
 *   cgct_trace record tpc-w out.trace --ops 100000 --seed 7
 *   cgct_trace info out.trace
 *   cgct_trace verify out.trace
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/argparse.hpp"
#include "common/config.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

using namespace cgct;

namespace {

int
cmdRecord(const std::string &benchmark, const std::string &path,
          std::uint64_t cpus, std::uint64_t ops, std::uint64_t seed)
{
    const WorkloadProfile &profile = benchmarkByName(benchmark);
    SyntheticWorkload workload(profile, static_cast<unsigned>(cpus), ops,
                               seed);
    const std::uint64_t written =
        captureTrace(workload, static_cast<unsigned>(cpus), ops, path);
    std::printf("recorded %llu ops (%llu per CPU x %llu CPUs) of '%s' "
                "to %s\n",
                static_cast<unsigned long long>(written),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(cpus),
                profile.name.c_str(), path.c_str());
    return 0;
}

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
    std::string arg1, arg2;
    std::uint64_t cpus = 4;
    std::uint64_t ops = 100000;
    std::uint64_t seed = 20050609;

    ArgParser parser(
        "cgct_trace",
        "Record benchmark op streams to a v2 trace file, or "
        "inspect/verify an existing trace (docs/TRACE_FORMAT.md).\n"
        "commands: record <benchmark> <file>, info <file>, "
        "verify <file>");
    parser.addPositional("command", &command, "record | info | verify",
                         true);
    parser.addPositional("arg1", &arg1,
                         "benchmark (record) or input file");
    parser.addPositional("arg2", &arg2, "output file");
    parser.addU64("cpus", &cpus, "processors to record");
    parser.addU64("ops", &ops, "ops per processor");
    parser.addU64("seed", &seed, "generator seed");

    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "cgct_trace: %s (try --help)\n",
                     error.c_str());
        return 1;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }

    if (command == "record") {
        if (arg1.empty() || arg2.empty()) {
            std::fprintf(stderr,
                         "cgct_trace: record needs <benchmark> <file>\n");
            return 1;
        }
        return cmdRecord(arg1, arg2, cpus, ops, seed);
    }
    if (command == "info") {
        if (arg1.empty()) {
            std::fprintf(stderr, "cgct_trace: info needs <file>\n");
            return 1;
        }
        return cmdInfo(arg1);
    }
    if (command == "verify") {
        if (arg1.empty()) {
            std::fprintf(stderr, "cgct_trace: verify needs <file>\n");
            return 1;
        }
        return cmdVerify(arg1);
    }
    std::fprintf(stderr, "cgct_trace: unknown command '%s'\n",
                 command.c_str());
    return 1;
}
