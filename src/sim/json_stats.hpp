/**
 * @file
 * Machine-readable results: serialize a RunResult (and batches of them)
 * to JSON for plotting scripts and regression tracking. No external JSON
 * dependency; the keys come from the field list (sim/result_fields.hpp).
 */

#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace cgct {

/** Serialize one run. @p indent prefixes every line (pretty printing). */
std::string toJson(const RunResult &result, const std::string &indent = "");

/** Serialize a batch as a JSON array. */
std::string toJson(const std::vector<RunResult> &results);

} // namespace cgct
