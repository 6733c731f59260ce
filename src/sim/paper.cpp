#include "sim/paper.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/log.hpp"
#include "core/region_protocol.hpp"
#include "core/regionscout.hpp"
#include "core/storage_model.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct::paper {

namespace {

using Cells = std::vector<std::string>;
using PerBench = std::function<double(std::size_t i)>;

constexpr std::uint64_t kRegionSizes[] = {256, 512, 1024};

[[gnu::format(printf, 1, 2)]] std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

std::string f0(double x) { return fmt("%.0f", x); }
std::string f1(double x) { return fmt("%.1f", x); }
std::string f2(double x) { return fmt("%.2f", x); }
double pct(double x) { return 100.0 * x; }

/** Percent reduction of a cost from @p base to @p with. */
double reduction(double base, double with) { return pct(1.0 - with / base); }

double cycles(const RunResult &r) { return static_cast<double>(r.cycles); }
double avoided(const RunResult &r) { return r.avoidedFraction(); }

double
runtimeCut(const RunResult &base, const RunResult &with)
{
    return reduction(cycles(base), cycles(with));
}

std::string
row(const Cells &cells)
{
    std::string s = "|";
    for (const std::string &c : cells)
        s += " " + c + " |";
    return s + "\n";
}

/** A bold summary row: @p label, then @p cells (empty ones stay empty). */
std::string
summaryRow(const std::string &label, const Cells &cells)
{
    Cells r{"**" + label + "**"};
    for (const std::string &c : cells)
        r.push_back(c.empty() ? c : "**" + c + "**");
    return row(r);
}

std::string
header(const Cells &cells)
{
    std::string rule = "|";
    for (std::size_t i = 0; i < cells.size(); ++i)
        rule += "---|";
    return row(cells) + rule + "\n";
}

const std::vector<WorkloadProfile> &bench() { return standardBenchmarks(); }

/** Header and one row per benchmark: its name, then @p cells(i). */
std::string
benchTable(Cells columns, const std::function<Cells(std::size_t)> &cells)
{
    columns.insert(columns.begin(), "benchmark");
    std::string out = header(columns);
    for (std::size_t i = 0; i < bench().size(); ++i) {
        Cells r = cells(i);
        r.insert(r.begin(), bench()[i].name);
        out += row(r);
    }
    return out;
}

double
benchMean(const PerBench &value, bool commercial_only = false)
{
    double sum = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < bench().size(); ++i) {
        if (!commercial_only || bench()[i].commercial) {
            sum += value(i);
            ++n;
        }
    }
    return sum / n;
}

/** The average and commercial-average rows of @p columns. */
std::string
averageRows(const std::vector<PerBench> &columns)
{
    std::string out;
    for (const bool commercial : {false, true}) {
        Cells cells;
        for (const PerBench &c : columns)
            cells.push_back(f1(benchMean(c, commercial)));
        out += summaryRow(commercial ? "commercial avg" : "average", cells);
    }
    return out;
}

// ---- Analytic tables -------------------------------------------------

std::string
renderTable1(const Data &)
{
    constexpr RegionState states[] = {
        RegionState::Invalid,      RegionState::CleanInvalid,
        RegionState::CleanClean,   RegionState::CleanDirty,
        RegionState::DirtyInvalid, RegionState::DirtyClean,
        RegionState::DirtyDirty,
    };
    constexpr RequestType types[] = {
        RequestType::Read,      RequestType::ReadExclusive,
        RequestType::Upgrade,   RequestType::Ifetch,
        RequestType::Prefetch,  RequestType::PrefetchExclusive,
        RequestType::Writeback, RequestType::Dcbz,
        RequestType::Dcbf,      RequestType::Dcbi,
    };
    const auto copies = [](bool dirty) {
        return dirty ? "May Have Modified Copies" : "Unmodified Copies Only";
    };
    std::string out = header(
        {"State", "Processor", "Other Processors", "Broadcast Needed?"});
    Cells routing{"request \\ region"};
    for (RegionState s : states) {
        const bool invalid = s == RegionState::Invalid;
        const bool exclusive = !invalid && isRegionExclusive(s);
        const bool clean = !invalid && isExternallyClean(s);
        out += row({std::string(regionStateName(s)),
                    invalid ? "No Cached Copies" : copies(isLocallyDirty(s)),
                    invalid     ? "Unknown"
                    : exclusive ? "No Cached Copies"
                                : copies(isExternallyDirty(s)),
                    exclusive ? "No" : clean ? "For Modifiable Copy" : "Yes"});
        routing.emplace_back(regionStateName(s));
    }
    out += "\nDerived routing matrix (request type × region state):\n\n" +
           header(routing);
    for (RequestType t : types) {
        Cells cells{std::string(requestTypeName(t))};
        for (RegionState s : states)
            cells.emplace_back(routeKindName(routeFor(t, s)));
        out += row(cells);
    }
    return out;
}

std::string
renderTable2(const Data &)
{
    std::ostringstream os;
    printStorageTable(os);
    return "```text\n" + os.str() + "```\n";
}

std::string
renderTable3(const Data &)
{
    std::ostringstream os;
    makeDefaultConfig().withCgct(512).print(os);
    return "```text\n" + os.str() + "```\n";
}

std::string
renderFig6(const Data &)
{
    using Ic = InterconnectParams;
    const std::pair<const char *, Distance> rows[] = {
        {"own memory (memory controller on chip)", Distance::OwnChip},
        {"same-data-switch memory", Distance::SameSwitch},
        {"same-board memory", Distance::SameBoard},
        {"remote memory", Distance::Remote},
    };
    const auto cpuAndSystem = [](Tick t) {
        return fmt("%llu (%.1f)", static_cast<unsigned long long>(t),
                   static_cast<double>(t) / kCpuCyclesPerSystemCycle);
    };
    std::string out = header({"memory", "snoop: CPU (system) cycles",
                              "direct: CPU (system) cycles",
                              "direct saves %"});
    for (const auto &[name, dist] : rows) {
        // Baseline: arbitration -> snoop (DRAM overlapped) -> transfer.
        const Tick snooped =
            Ic::snoopLatency + Ic::dramOverlappedExtra + Ic::xferLatency(dist);
        // Direct: request delivery -> full DRAM -> transfer.
        const Tick direct =
            Ic::directLatency(dist) + Ic::dramLatency + Ic::xferLatency(dist);
        out += row({name, cpuAndSystem(snooped), cpuAndSystem(direct),
                    f1(reduction(static_cast<double>(snooped),
                                 static_cast<double>(direct)))});
    }
    return out;
}

// ---- The default matrix: Figures 2, 7, 8 and 10 ----------------------

double
oraclePct(const SweepData &m, std::size_t i)
{
    return pct(m.mean(i, 0, [](const RunResult &r) {
        return r.oracleUnnecessaryFraction();
    }));
}

double
avoidedPct(const SweepData &m, std::size_t i, std::uint64_t region)
{
    return pct(m.mean(i, region, avoided));
}

std::string
renderFig2(const Data &d)
{
    const SweepData &m = *d[0];
    const auto cells = [&](std::size_t i) {
        Cells c{f0(m.mean(i, 0, [](const RunResult &r) {
            return static_cast<double>(r.oracleTotal);
        }))};
        for (std::size_t k = 0; k < kNumCategories; ++k)
            c.push_back(f1(pct(m.mean(i, 0, [k](const RunResult &r) {
                return static_cast<double>(r.oracleUnnecessaryByCat[k]) /
                       static_cast<double>(r.oracleTotal);
            }))));
        c.push_back(f1(oraclePct(m, i)));
        return c;
    };
    const double avg =
        benchMean([&](std::size_t i) { return oraclePct(m, i); });
    return benchTable({"broadcasts", "data-rw %", "writeback %", "ifetch %",
                       "dcb %", "total %"},
                      cells) +
           summaryRow("average", {"", "", "", "", "", f1(avg)});
}

std::vector<Claim>
claimsFig2(const Data &d)
{
    const double avg =
        benchMean([&](std::size_t i) { return oraclePct(*d[0], i); });
    const double tpch =
        oraclePct(*d[0], &benchmarkByName("tpc-h") - bench().data());
    return {{"fig2-average", false,
             fmt("the oracle finds %.1f %% of baseline broadcasts "
                 "unnecessary on average, within 2 pt of the paper's 67 %%",
                 avg),
             std::abs(avg - 67.0) <= 2.0},
            {"fig2-tpch-best-case", false,
             fmt("the oracle finds %.1f %% of tpc-h's broadcasts "
                 "unnecessary, within 2 pt of §5.1's best-case reduction "
                 "of 15 %%",
                 tpch),
             std::abs(tpch - 15.0) <= 2.0}};
}

std::string
renderFig7(const Data &d)
{
    const SweepData &m = *d[0];
    // The oracle, the avoided fraction per region size, and their ratio
    // at 512 B; @p v maps region 0 to the oracle.
    const auto cells = [](const std::function<double(std::uint64_t)> &v) {
        return Cells{f1(v(0)), f1(v(256)), f1(v(512)), f1(v(1024)),
                     f2(v(512) / v(0))};
    };
    const auto value = [&](std::size_t i, std::uint64_t region) {
        return region ? avoidedPct(m, i, region) : oraclePct(m, i);
    };
    const auto bench_cells = [&](std::size_t i) {
        return cells([&](std::uint64_t r) { return value(i, r); });
    };
    return benchTable({"oracle %", "256 B %", "512 B %", "1 KB %",
                       "capture @ 512 B"},
                      bench_cells) +
           summaryRow("average", cells([&](std::uint64_t r) {
               return benchMean([&](std::size_t i) { return value(i, r); });
           }));
}

std::vector<Claim>
claimsFig7(const Data &d)
{
    const SweepData &m = *d[0];
    std::vector<std::size_t> order(bench().size());
    double lo = 1.0, hi = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
        lo = std::min(lo, avoidedPct(m, i, 512) / oraclePct(m, i));
        hi = std::max(hi, avoidedPct(m, i, 512) / oraclePct(m, i));
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return avoidedPct(m, a, 512) < avoidedPct(m, b, 512);
    });
    const std::string &first = bench()[order[0]].name;
    const std::string &second = bench()[order[1]].name;
    return {
        {"fig7-weakest", false,
         fmt("%s and %s avoid the fewest broadcasts at 512 B (%.1f %% and "
             "%.1f %%), as Barnes and TPC-H do in the paper",
             first.c_str(), second.c_str(), avoidedPct(m, order[0], 512),
             avoidedPct(m, order[1], 512)),
         std::min(first, second) == "barnes" &&
             std::max(first, second) == "tpc-h"},
        {"fig7-capture", false,
         fmt("512 B regions capture %.0f-%.0f %% of each benchmark's "
             "oracle opportunity, inside the paper's 55-97 %%",
             pct(lo), pct(hi)),
         lo >= 0.55 && hi <= 0.97},
    };
}

/** Figure 8's run-time reduction and its 95 % CI half-width. */
std::array<double, 2>
fig8Cell(const SweepData &m, std::size_t i, std::uint64_t region)
{
    const RunSummary b = m.summary(i, 0, cycles);
    const RunSummary c = m.summary(i, region, cycles);
    // Combine the two intervals (independent runs).
    return {reduction(b.mean, c.mean),
            pct(std::sqrt(b.ci95Half * b.ci95Half +
                          c.ci95Half * c.ci95Half) /
                b.mean)};
}

PerBench
fig8Column(const SweepData &m, std::uint64_t region)
{
    return [&m, region](std::size_t i) { return fig8Cell(m, i, region)[0]; };
}

std::string
renderFig8(const Data &d)
{
    const SweepData &m = *d[0];
    const auto cells = [&](std::size_t i) {
        Cells c;
        for (std::uint64_t region : kRegionSizes) {
            const auto [cut, ci] = fig8Cell(m, i, region);
            c.push_back(fmt("%.1f ± %.1f", cut, ci));
        }
        return c;
    };
    return benchTable({"256 B %", "512 B %", "1 KB %"}, cells) +
           averageRows({fig8Column(m, 256), fig8Column(m, 512),
                        fig8Column(m, 1024)});
}

std::vector<Claim>
claimsFig8(const Data &d)
{
    const SweepData &m = *d[0];
    bool wins = true;
    std::array<double, 2> outlier{};
    std::size_t best = 0;
    for (std::size_t i = 0; i < bench().size(); ++i) {
        for (std::uint64_t region : kRegionSizes) {
            const auto c = fig8Cell(m, i, region);
            const bool exempt =
                bench()[i].name == "raytrace" && region == 1024;
            if (exempt)
                outlier = c;
            wins = wins && (exempt ? c[0] + c[1] >= 0.0 : c[0] > 0.0);
        }
        if (fig8Cell(m, i, 512)[0] > fig8Cell(m, best, 512)[0])
            best = i;
    }
    const double avg = benchMean(fig8Column(m, 512));
    const double commercial = benchMean(fig8Column(m, 512), true);
    const double top = fig8Cell(m, best, 512)[0];
    const double ratios[] = {avg / 8.8, commercial / 10.4, top / 21.7};
    const double sizes[] = {benchMean(fig8Column(m, 256)), avg,
                            benchMean(fig8Column(m, 1024))};
    const auto [low, high] = std::minmax_element(sizes, sizes + 3);
    return {
        {"fig8-wins", false,
         fmt("CGCT cuts run time for every benchmark and region size "
             "except raytrace @ 1 KB, whose %.1f ± %.1f %% lies inside "
             "its 95 %% CI",
             outlier[0], outlier[1]),
         wins},
        {"fig8-magnitude", true,
         fmt("known deviation 2: the 512 B average (%.1f %%), commercial "
             "average (%.1f %%) and best case (%.1f %%, %s) are "
             "%.2f/%.2f/%.2fx the paper's 8.8/10.4/21.7 %%, bound 0.6-0.8x",
             avg, commercial, top, bench()[best].name.c_str(), ratios[0],
             ratios[1], ratios[2]),
         std::all_of(ratios, ratios + 3,
                     [](double r) { return r >= 0.6 && r <= 0.8; })},
        {"fig8-region-sizes", true,
         fmt("known deviation 4: the 256 B / 512 B / 1 KB averages "
             "(%.1f / %.1f / %.1f %%) lie within %.2f pt of one another, "
             "bound 1.1 pt, where the paper found 512 B best",
             sizes[0], sizes[1], sizes[2], *high - *low),
         *high - *low <= 1.1},
    };
}

/** Figure 10's baseline and 512 B average and peak traffic. */
std::array<double, 4>
fig10Cell(const SweepData &m, std::size_t i)
{
    const auto avg = [](const RunResult &r) { return r.avgBroadcastsPer100k; };
    const auto peak = [](const RunResult &r) {
        return r.peakBroadcastsPer100k;
    };
    return {m.mean(i, 0, avg), m.mean(i, 512, avg), m.mean(i, 0, peak),
            m.mean(i, 512, peak)};
}

double
fig10MeanRatio(const SweepData &m, bool peak)
{
    return benchMean([&](std::size_t i) {
        const auto t = fig10Cell(m, i);
        return peak ? t[3] / t[2] : t[1] / t[0];
    });
}

std::string
renderFig10(const Data &d)
{
    const SweepData &m = *d[0];
    std::array<double, 4> max{};
    const auto cells = [&](std::size_t i) {
        const auto t = fig10Cell(m, i);
        for (std::size_t k = 0; k < t.size(); ++k)
            max[k] = std::max(max[k], t[k]);
        return Cells{f0(t[0]), f0(t[1]), f0(t[2]), f0(t[3]), f2(t[1] / t[0]),
                     f2(t[3] / t[2])};
    };
    const std::string out = benchTable({"base avg", "CGCT avg", "base peak",
                                        "CGCT peak", "avg ×", "peak ×"},
                                       cells);
    return out + summaryRow("max / mean ratio",
                            {f0(max[0]), f0(max[1]), f0(max[2]), f0(max[3]),
                             f2(fig10MeanRatio(m, false)),
                             f2(fig10MeanRatio(m, true))});
}

std::vector<Claim>
claimsFig10(const Data &d)
{
    const double avg = fig10MeanRatio(*d[0], false);
    const double peak = fig10MeanRatio(*d[0], true);
    return {{"fig10-halved", false,
             fmt("512 B regions cut average and peak broadcast traffic to "
                 "%.3fx and %.3fx of the baseline (mean over benchmarks), "
                 "the paper's \"less than half\"",
                 avg, peak),
             avg <= 0.5 && peak <= 0.5}};
}

// ---- Figure 9 and Section 3.2 ----------------------------------------

/** Run-time reduction with the full (d[0]) or half-size (d[1]) RCA. */
PerBench
fig9Column(const Data &d, bool half)
{
    return [&d, half](std::size_t i) {
        return reduction(d[0]->mean(i, 0, cycles),
                         d[half ? 1 : 0]->mean(i, 512, cycles));
    };
}

std::string
renderFig9(const Data &d)
{
    const auto cells = [&](std::size_t i) {
        return Cells{f1(fig9Column(d, false)(i)), f1(fig9Column(d, true)(i))};
    };
    return benchTable({"16K-entry %", "8K-entry %"}, cells) +
           averageRows({fig9Column(d, false), fig9Column(d, true)});
}

/** Evicted-region line counts: empty, one, two, three or more (%). */
std::array<double, 4>
evictionSplit(const RunResult &r)
{
    const double total = static_cast<double>(
        r.rcaEvictedEmpty + r.rcaEvictedOne + r.rcaEvictedTwo +
        r.rcaEvictedMore);
    return {pct(r.rcaEvictedEmpty / total), pct(r.rcaEvictedOne / total),
            pct(r.rcaEvictedTwo / total), pct(r.rcaEvictedMore / total)};
}

std::string
renderSec32(const Data &d)
{
    const SweepData &m = *d[0];
    const auto cells = [&](std::size_t i) {
        const RunResult &b = m.at(i, 0);
        const RunResult &r = m.at(i, 512);
        Cells c;
        for (double share : evictionSplit(r))
            c.push_back(f1(share));
        return Cells{c[0], c[1], c[2], c[3], f2(r.avgLinesPerEvictedRegion),
                     std::to_string(r.inclusionWritebacks),
                     f2(pct(r.l2MissRatio / b.l2MissRatio - 1.0))};
    };
    const auto share = [&](int k) {
        return f1(benchMean(
            [&](std::size_t i) { return evictionSplit(m.at(i, 512))[k]; }));
    };
    return benchTable({"empty %", "1-line %", "2-line %", "3+ %",
                       "lines/region", "flush lines", "miss Δ %"},
                      cells) +
           summaryRow("average",
                      {share(0), share(1), share(2), "", "", "", ""});
}

// ---- Section 5.1: TPC-H's two phases ---------------------------------

/** tpc-h reduced to its first (scan) or last (merge) phase. */
WorkloadProfile
tpchPhase(bool merge)
{
    WorkloadProfile p = benchmarkByName("tpc-h");
    p.name = merge ? "tpc-h-merge" : "tpc-h-scan";
    PhaseSpec phase = merge ? p.phases.back() : p.phases.front();
    phase.fraction = 1.0;
    p.phases = {phase};
    return p;
}

/** Share of baseline reads supplied cache to cache (%). */
double
c2cPct(const SweepData &m, std::size_t i)
{
    return pct(m.mean(i, 0, [](const RunResult &r) {
        return static_cast<double>(r.cacheToCache) /
               static_cast<double>(r.cacheToCache + r.memorySupplied);
    }));
}

std::string
renderSec51(const Data &d)
{
    const SweepData &m = *d[0];
    std::string out = header({"phase", "oracle %", "512 B avoided %",
                              "c2c reads %", "runtime %"});
    for (std::size_t i = 0; i < m.sweep.profiles.size(); ++i)
        out += row({m.sweep.profiles[i].name, f1(oraclePct(m, i)),
                    f1(avoidedPct(m, i, 512)), f1(c2cPct(m, i)),
                    f1(reduction(m.mean(i, 0, cycles),
                                 m.mean(i, 512, cycles)))});
    return out;
}

std::vector<Claim>
claimsSec51(const Data &d)
{
    const SweepData &m = *d[0];
    const double scan = avoidedPct(m, 0, 512);
    const double merge = avoidedPct(m, 1, 512);
    const double c2c = c2cPct(m, 1);
    return {{"sec51-phases", false,
             fmt("512 B regions avoid %.1f %% of the scan phase's "
                 "broadcasts (bound > 50 %%) but %.1f %% of the merge "
                 "phase's (bound < 10 %%), %.1f %% of whose baseline reads "
                 "come cache to cache (bound > 50 %%), as §5.1 explains "
                 "TPC-H",
                 scan, merge, c2c),
             scan > 50.0 && merge < 10.0 && c2c > 50.0}};
}

// ---- Ablations -------------------------------------------------------

/** One benchmark's baseline run and two variants' runs. */
using Trio = std::array<const RunResult *, 3>;

/**
 * Two variants against one baseline (A1, A3, A4): a statistic of
 * each variant's run (@p value, headed "@p stat VARIANT@p unit"), each
 * one's run-time reduction, and the average run-time row.
 */
std::string
renderVariants(const std::string &stat, const std::string &unit,
               const std::string &a, const std::string &b,
               std::string (*value)(const RunResult &),
               const std::function<Trio(std::size_t)> &runs)
{
    const auto cut = [&](int k) {
        return [&runs, k](std::size_t i) {
            const Trio r = runs(i);
            return runtimeCut(*r[0], *r[k]);
        };
    };
    const auto cells = [&](std::size_t i) {
        const Trio r = runs(i);
        return Cells{value(*r[1]), value(*r[2]), f1(cut(1)(i)),
                     f1(cut(2)(i))};
    };
    return benchTable({stat + " " + a + unit, stat + " " + b + unit,
                       "runtime " + a + " %", "runtime " + b + " %"},
                      cells) +
           summaryRow("average runtime", {"", "", f1(benchMean(cut(1))),
                                          f1(benchMean(cut(2)))});
}

std::string avoidedCell(const RunResult &r) { return f1(pct(avoided(r))); }

/** A 512 B variant (d[1]) against the shared baseline pair (d[0]). */
std::function<Trio(std::size_t)>
againstPair(const Data &d)
{
    return [&d](std::size_t i) {
        return Trio{&d[0]->at(i, 0), &d[0]->at(i, 512), &d[1]->at(i, 512)};
    };
}

std::string
renderA1(const Data &d)
{
    return renderVariants("avoid", " %", "on", "off", avoidedCell,
                          againstPair(d));
}

std::string
renderA2(const Data &d)
{
    const auto cells = [&](std::size_t i) {
        const RunResult &f = d[0]->at(i, 512);
        const RunResult &l = d[1]->at(i, 512);
        return Cells{std::to_string(f.inclusionWritebacks),
                     std::to_string(l.inclusionWritebacks),
                     f1(evictionSplit(f)[0]), f1(evictionSplit(l)[0]),
                     f2(pct(f.l2MissRatio)), f2(pct(l.l2MissRatio))};
    };
    return benchTable({"flush favor", "flush LRU", "empty % favor",
                       "empty % LRU", "miss % favor", "miss % LRU"},
                      cells);
}

std::string
renderA3(const Data &d)
{
    return renderVariants("avoid", " %", "7-state", "3-state", avoidedCell,
                          againstPair(d));
}

std::string
renderA4(const Data &d)
{
    return renderVariants("avoid", " %", "CGCT", "RegionScout", avoidedCell,
                          [&d](std::size_t i) {
                              return Trio{&d[0]->at(i, 0), &d[0]->at(i, 512),
                                          &d[1]->at(i, 0)};
                          });
}

std::string
renderA5(const Data &d)
{
    // By growing reach; the paper's 8192 x 2 array is the pair's 512 B.
    const SweepData *cols[] = {d[1], d[2], d[3], d[0], d[4]};
    Cells names;
    for (const SweepData *c : cols) {
        const CgctParams &g = c->sweep.config.cgct;
        names.push_back(fmt("%u×%u (%u MB) %%", g.rcaSets, g.rcaWays,
                            g.rcaSets * g.rcaWays * 512 / (1024 * 1024)));
    }
    return benchTable(names, [&](std::size_t i) {
        Cells cells;
        for (const SweepData *c : cols)
            cells.push_back(avoidedCell(c->at(i, 512)));
        return cells;
    });
}

std::string
renderA7(const Data &d)
{
    const auto cells = [&](std::size_t i) {
        const RunResult &b = d[0]->at(i, 0);
        const RunResult &c = d[0]->at(i, 512);
        return Cells{f0(b.avgBroadcastsPer100k), f0(c.avgBroadcastsPer100k),
                     std::to_string(b.cycles), f1(runtimeCut(b, c))};
    };
    return benchTable({"base avg", "CGCT avg", "base cycles", "runtime %"},
                      cells);
}

std::string
renderA8(const Data &d)
{
    const SweepData &m = *d[0];
    const auto energy = [&](std::size_t i, std::uint64_t region) {
        return m.energy[m.index(i, region)];
    };
    const auto saved = [&](std::size_t i) {
        return reduction(energy(i, 0).total(), energy(i, 512).total());
    };
    const auto uj = [](double nj) { return f0(nj / 1000.0); };
    const auto cells = [&](std::size_t i) {
        const EnergyBreakdown b = energy(i, 0);
        const EnergyBreakdown c = energy(i, 512);
        return Cells{uj(b.total()), uj(c.total()), f1(saved(i)),
                     uj(b.network + b.tagLookups),
                     uj(c.network + c.tagLookups), uj(c.rca)};
    };
    return benchTable({"base µJ", "CGCT µJ", "saved %", "net+tag base µJ",
                       "net+tag CGCT µJ", "RCA µJ"},
                      cells) +
           summaryRow("average", {"", "", f1(benchMean(saved)), "", "", ""});
}

// ---- Cells that read the System after the run ------------------------

/** A whole run (no warmup reset) built through System. */
RunResult
runWhole(const SweepCell &cell, const SystemConfig &config,
         const RunOptions &opts, const System::TrackerFactory &trackers,
         EnergyBreakdown *energy)
{
    SyntheticWorkload workload(*cell.profile, config.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    System sys(config, workload, trackers);
    runPhase(sys, /*resume=*/false, opts.maxEvents);
    if (energy)
        *energy = computeEnergy(sys);
    return collectRunResult(sys, cell.profile->name, opts.seed, 0);
}

// ---- The declarations ------------------------------------------------

Sweep
makeSweep(std::vector<std::uint64_t> regions, unsigned seeds = 1)
{
    Sweep s;
    s.regions = std::move(regions);
    s.seeds = seeds;
    return s;
}

/** A 512 B single-seed sweep with one CGCT knob changed. */
template <typename Edit>
Sweep
variant(Edit edit)
{
    Sweep s = makeSweep({512});
    edit(s.config.cgct);
    return s;
}

Sweep
geometry(unsigned sets, unsigned ways, unsigned seeds = 1)
{
    Sweep s = variant([=](CgctParams &p) {
        p.rcaSets = sets;
        p.rcaWays = ways;
    });
    s.seeds = seeds;
    return s;
}

std::vector<Table>
declareTables()
{
    const Sweep matrix = makeSweep({0, 256, 512, 1024}, 3);
    // The single-seed ablations share one baseline / plain 512 B pair.
    const Sweep pair = makeSweep({0, 512});
    Sweep sec32 = pair;
    // The eviction statistics need a warm, full RCA: 4x the run.
    sec32.ops = 480000;
    sec32.warmup = 96000;
    Sweep dma = pair;
    dma.config.dma.enabled = true;
    dma.config.dma.meanInterval = 4000; // A busy I/O subsystem.
    // A4 and A8 compare whole runs; one sweep serves both.
    Sweep whole = pair;
    whole.warmup = 0;
    whole.cell = Sweep::Cell::Energy;
    Sweep sec51 = makeSweep({0, 512}, 3);
    sec51.profiles = {tpchPhase(false), tpchPhase(true)};
    Sweep region_scout = makeSweep({0});
    region_scout.warmup = 0;
    region_scout.cell = Sweep::Cell::RegionScout;

    return {
        {"table1", {}, renderTable1, nullptr},
        {"table2", {}, renderTable2, nullptr},
        {"table3", {}, renderTable3, nullptr},
        {"fig2", {matrix}, renderFig2, claimsFig2},
        {"fig6", {}, renderFig6, nullptr},
        {"fig7", {matrix}, renderFig7, claimsFig7},
        {"fig8", {matrix}, renderFig8, claimsFig8},
        {"fig9", {matrix, geometry(4096, 2, 3)}, renderFig9, nullptr},
        {"fig10", {matrix}, renderFig10, claimsFig10},
        {"sec32", {sec32}, renderSec32, nullptr},
        {"sec51", {sec51}, renderSec51, claimsSec51},
        {"a1",
         {pair, variant([](CgctParams &p) { p.selfInvalidation = false; })},
         renderA1, nullptr},
        {"a2",
         {pair, variant([](CgctParams &p) { p.favorEmptyRegions = false; })},
         renderA2, nullptr},
        {"a3",
         {pair, variant([](CgctParams &p) { p.threeStateProtocol = true; })},
         renderA3, nullptr},
        {"a4", {whole, region_scout}, renderA4, nullptr},
        {"a5",
         {pair, geometry(1024, 2), geometry(2048, 2), geometry(4096, 2),
          geometry(4096, 4)},
         renderA5, nullptr},
        {"a7", {dma}, renderA7, nullptr},
        {"a8", {whole}, renderA8, nullptr},
    };
}

} // namespace

std::size_t
SweepData::index(std::size_t profile, std::uint64_t region,
                 unsigned seed) const
{
    const auto it =
        std::find(sweep.regions.begin(), sweep.regions.end(), region);
    if (it == sweep.regions.end() || seed >= sweep.seeds)
        panic("paper: sweep has no region %llu seed %u",
              static_cast<unsigned long long>(region), seed);
    const auto r = static_cast<std::size_t>(it - sweep.regions.begin());
    return (profile * sweep.regions.size() + r) * sweep.seeds + seed;
}

RunSummary
SweepData::summary(std::size_t profile, std::uint64_t region,
                   const std::function<double(const RunResult &)> &metric)
    const
{
    std::vector<double> values;
    for (unsigned s = 0; s < sweep.seeds; ++s)
        values.push_back(metric(at(profile, region, s)));
    return summarize(values);
}

const std::vector<Table> &
tables()
{
    static const std::vector<Table> all = declareTables();
    return all;
}

const Table *
findTable(std::string_view name)
{
    for (const Table &t : tables())
        if (name == t.name)
            return &t;
    return nullptr;
}

SweepSpec
toSpec(const Sweep &sweep)
{
    SweepSpec spec;
    for (const WorkloadProfile &p :
         sweep.profiles.empty() ? bench() : sweep.profiles)
        spec.profiles.push_back(&p);
    spec.regionSizes = sweep.regions;
    spec.seedsPerCell = sweep.seeds;
    spec.opts.opsPerCpu = sweep.ops;
    spec.opts.warmupOps = sweep.warmup;
    spec.baseConfig = sweep.config;
    return spec;
}

SweepData
runSweep(const Sweep &sweep, unsigned jobs)
{
    SweepData data{sweep, {}, {}};
    SweepSpec spec = toSpec(sweep);
    if (sweep.cell == Sweep::Cell::Energy) {
        data.energy.resize(spec.expand().size());
        // Each cell writes only its own slot.
        spec.simulate = [&data](const SweepCell &cell,
                                const SystemConfig &config,
                                const RunOptions &opts) {
            return runWhole(cell, config, opts, {},
                            &data.energy[cell.index]);
        };
    } else if (sweep.cell == Sweep::Cell::RegionScout) {
        spec.simulate = [](const SweepCell &cell, const SystemConfig &config,
                           const RunOptions &opts) {
            const auto region_scout = [&config](CpuId cpu) {
                return std::make_shared<RegionScout>(
                    cpu, RegionScoutParams{}, config.l2.lineBytes);
            };
            return runWhole(cell, config, opts, region_scout, nullptr);
        };
    }
    data.runs = SweepRunner(std::move(spec), jobs).run();
    return data;
}

std::string
renderBlock(const Table &table, const Data &data, bool *claims_hold)
{
    std::string out = table.render(data);
    if (!table.claims)
        return out;
    out += "\n";
    for (const Claim &c : table.claims(data)) {
        const char *mark = !c.holds ? "❌" : c.bound ? "🟡" : "✅";
        out += fmt("- %s `%s`: ", mark, c.name) + c.text + "\n";
        if (claims_hold && !c.holds)
            *claims_hold = false;
    }
    return out;
}

} // namespace cgct::paper
