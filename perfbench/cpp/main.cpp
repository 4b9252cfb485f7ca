// scalbench: the repository benchmark.
//
//   scalbench --workload table3-cold|serve-mix|fleet-sessions --seed N
//             --seconds S --trace 0|1 [--load k=v,...] [--pins FILE]
//             [--trace-out FILE]
//
// Runs one workload in the current directory (which it fills with
// archives, journals and sockets) and prints one JSON result line last:
// the end-to-end metrics untraced, the per-layer metrics with --trace 1.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace scalbench {

namespace {

using Spec = std::vector<std::pair<std::string, std::string>>;

const Spec kEndToEnd = {
    {"campaign_s", "s"},     {"campaign_cpu_s", "s"},
    {"mp_err_pct", "%"},     {"read_p50_ms", "ms"},
    {"cold_p50_ms", "ms"},
    {"capacity_rps", "req/s"}, {"ok_pct", "%"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"}};

const Spec kPerLayer = {
    {"machine.runs", "count"},
    {"machine.accesses", "count"},
    {"machine.l1_hits", "count"},
    {"machine.l2_hits", "count"},
    {"machine.l2_misses", "count"},
    {"machine.remote_misses", "count"},
    {"machine.invalidations", "count"},
    {"machine.busy_s", "s"},
    {"machine.ns_per_access", "ns"},
    {"runner.plan_ms", "ms"},
    {"runner.jobs", "count"},
    {"runner.assemble_ms", "ms"},
    {"engine.execute_s", "s"},
    {"engine.pool_util", "ratio"},
    {"engine.jobs_run", "count"},
    {"engine.jobs_cached", "count"},
    {"archive.commit_ms", "ms"},
    {"archive.load_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.whatif_ms", "ms"},
    {"core.report_ms", "ms"},
    {"plan.runs", "count"},
    {"plan.runs_skipped", "count"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.coalesced", "count"},
    {"serve.sim_runs", "count"},
    {"serve.replayed_runs", "count"},
    {"serve.shed", "count"},
    {"fleet.routed", "count"},
    {"fleet.hedges", "count"},
    {"fleet.sim_runs", "count"},
    {"fleet.dup_sim_runs", "count"},
    {"load.read_p99_ms", "ms"},
    {"load.lag_p99_ms", "ms"},
    {"load.offered", "count"},
    {"load.completed", "count"},
    {"load.backlog_grew", "count"},
    {"pop.read_hit_pct", "%"},
    {"pop.read_sim_pct", "%"},
    {"pop.read_scatter_pct", "%"},
    {"pop.cold_hit_pct", "%"},
    {"pop.cold_sim_pct", "%"},
    {"pop.cold_scatter_pct", "%"},
    {"pop.inside", "count"},
    {"self.machine_ms", "ms"},
    {"self.runner_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.archive_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.plan_ms", "ms"},
    {"self.uncovered_pct", "%"},
    {"trace.overhead_campaign_pct", "%"},
    {"trace.overhead_read_p50_pct", "%"}};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "scalbench: " << why
            << "\nusage: scalbench --workload table3-cold|serve-mix|"
               "fleet-sessions --seed N --seconds S --trace 0|1 "
               "[--load k=v,...] [--pins FILE] [--trace-out FILE]\n";
  std::exit(2);
}

}  // namespace

void report_populations(const ClassStats& pop, bool inside) {
  auto line = [](const char* name, const Population& p) {
    std::cerr << "population " << name << ": n=" << p.n
              << " result-cache hits " << p.pct(p.hits) << "%, simulating "
              << p.pct(p.sims) << "%, scattered " << p.pct(p.scattered)
              << "%\n";
  };
  line("read", pop.read);
  line("cold", pop.cold);
  if (!inside)
    std::cerr << "population: a reported percentile sits on the edge "
                 "between two populations\n";
}

}  // namespace scalbench

int main(int argc, char** argv) {
  using namespace scalbench;
  const auto main_start = Clock::now();
  // The benchmark keeps every cache in memory; bench/common's environment
  // knobs (and its persistent cache file) must not leak into a run.
  ::unsetenv("SCALTOOL_BENCH_CACHE");
  ::unsetenv("SCALTOOL_BENCH_JOBS");

  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--trace-out") opt.trace_out = value;
      else if (key == "--pins") opt.pins = value;
      else if (key == "--load") opt.load = Load::parse(value);
      else usage("unknown option " + key);
    } catch (const std::exception& e) {
      usage("bad value for " + key + ": " + e.what());
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");

  try {
    Result r;
    if (opt.workload == "table3-cold") r = run_table3(opt, main_start);
    else if (opt.workload == "serve-mix") r = run_servemix(opt, main_start);
    else if (opt.workload == "fleet-sessions") r = run_fleet(opt, main_start);
    else usage("unknown workload '" + opt.workload + "'");
    r.attempted = std::max(r.attempted, r.failed);  // one op may fail twice
    r.set("ok_pct", 100.0 * static_cast<double>(r.attempted - r.failed) /
                        static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)));
    if (!opt.trace_out.empty()) Tracer::instance().write(opt.trace_out);
    const std::string line =
        opt.trace ? r.json(kPerLayer, false) : r.json(kEndToEnd, true);
    std::cout << line << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "scalbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
