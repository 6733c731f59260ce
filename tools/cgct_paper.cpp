/**
 * @file
 * cgct_paper — regenerate the tables of EXPERIMENTS.md and check the
 * paper claims they bear on (see docs/SWEEP.md). Each table prints as
 * the block EXPERIMENTS.md holds between its markers; output is the same
 * at any --jobs value. Exits 1 on a usage error, 2 when a claim fails.
 *
 *   cgct_paper                      # every table
 *   cgct_paper fig8,fig9 --jobs 2
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.hpp"
#include "sim/paper.hpp"
#include "snapshot/journal.hpp"

using namespace cgct;

int
main(int argc, char **argv)
{
    std::string names = "all";
    unsigned jobs = 0;
    ArgParser parser("cgct_paper",
                     "Regenerate the EXPERIMENTS.md tables and check the "
                     "paper claims they bear on.");
    parser.addPositional("tables", &names,
                         "comma-separated table names (table1, fig8, a4, "
                         "...), or 'all'");
    parser.addUnsigned("jobs", &jobs,
                       "worker threads (0 = hardware concurrency)");
    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "cgct_paper: %s (try --help)\n", error.c_str());
        return 1;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }

    std::vector<const paper::Table *> chosen;
    std::string known;
    for (const paper::Table &t : paper::tables())
        known += std::string(known.empty() ? "" : ", ") + t.name;
    for (const std::string &name : splitList(names)) {
        if (name == "all") {
            for (const paper::Table &t : paper::tables())
                chosen.push_back(&t);
        } else if (const paper::Table *t = paper::findTable(name)) {
            chosen.push_back(t);
        } else {
            std::fprintf(stderr, "cgct_paper: unknown table '%s' (known: "
                                 "%s)\n",
                         name.c_str(), known.c_str());
            return 1;
        }
    }

    // Each distinct sweep runs once, however many tables read it.
    std::map<std::pair<std::uint64_t, paper::Sweep::Cell>, paper::SweepData>
        done;
    bool claims_hold = true;
    for (const paper::Table *t : chosen) {
        paper::Data data;
        for (const paper::Sweep &s : t->sweeps) {
            const auto key =
                std::make_pair(sweepFingerprint(paper::toSpec(s)), s.cell);
            auto it = done.find(key);
            if (it == done.end())
                it = done.emplace(key, paper::runSweep(s, jobs)).first;
            data.push_back(&it->second);
        }
        std::cout << "<!-- cgct_paper " << t->name << " -->\n"
                  << paper::renderBlock(*t, data, &claims_hold)
                  << "<!-- /cgct_paper -->\n\n"
                  << std::flush;
    }
    return claims_hold ? 0 : 2;
}
