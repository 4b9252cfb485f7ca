// The three workloads. Each returns its end-to-end metrics, and with
// Options::trace also its per-layer metrics.
#pragma once

#include "harness.hpp"

namespace scalbench {

Result run_table3(const Options& opt, Clock::time_point main_start);
Result run_servemix(const Options& opt, Clock::time_point main_start);
Result run_fleet(const Options& opt, Clock::time_point main_start);

/// Prints each latency class's population shares to stderr.
void report_populations(const ClassStats& pop, bool inside);

}  // namespace scalbench
