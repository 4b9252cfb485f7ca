// Matrices, seeded analysis flags, pinned digests and the traced layer
// pass every workload's traced run ends with.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/run_cache.hpp"
#include "harness.hpp"

namespace scalbench {

/// One measurement matrix as the CLI names it.
struct Matrix {
  std::string app;
  std::size_t s0 = 0;
  int max_procs = 32;
  int iters = 12;

  /// "<app> --size=<bytes> --max-procs=N --iters=I".
  std::vector<std::string> args() const;
};

/// The three applications of the paper's Table 3.
inline constexpr const char* kApps[] = {"t3dheat", "hydro2d", "swim"};

scaltool::serve::Request make_request(const std::string& op,
                                      std::vector<std::string> args);

/// `head` followed by `tail`.
std::vector<std::string> concat(std::vector<std::string> head,
                                const std::vector<std::string>& tail);

/// The machine's L2 capacity (the unit of the paper's data-set ratios).
std::size_t l2_bytes();

/// Small matrix of `app` whose s0 is 2×L2 plus `offset` lines: distinct
/// offsets give distinct matrices that cost about the same to simulate.
Matrix small_matrix(const std::string& app, std::size_t offset);

/// Seeded analysis-only flags for `op` ("analyze" or "whatif"). They
/// change the answer, never the matrix, so no flag makes a read simulate.
std::vector<std::string> read_flags(Rng& rng, const std::string& op);

/// Digests pinned in the benchmark's directory ("<key> <value>" lines).
std::map<std::string, std::string> load_pins(const std::string& path);

/// Serial, traced pass over `matrices` through each layer's public calls:
/// plan_matrix, run_full per job, assemble_matrix, commit_archive,
/// load_inputs, analyze, what_if and the report text, then one
/// CampaignEngine::execute at `jobs` and, when `adaptive`, one adaptive
/// planner run per matrix. Sets the machine.*, runner.*, engine.*,
/// archive.*, core.*, plan.* and self.* per-layer metrics. Returns the
/// CRC of each committed archive, in order.
std::vector<std::uint32_t> layer_pass(const std::vector<Matrix>& matrices,
                                      int jobs, bool adaptive, Result& r);

/// The inputs of `m`, collected through the engine over `cache`.
scaltool::ScalToolInputs collect_inputs(
    const Matrix& m, const std::shared_ptr<scaltool::RunCache>& cache);

/// Latency metrics of a service workload: read_p50_ms (and the per-layer
/// load.read_p99_ms) over open-loop reads, cold_p50_ms over open-loop cold
/// requests (both timed from the due time, over windows of the open-loop
/// time line), capacity_rps as the median rate of the closed-loop
/// windows.
void latency_metrics(const std::vector<Record>& records, const LoadStats& load,
                     Result& r);

/// load.* metrics; a growing backlog is reported on stderr.
void load_metrics(const LoadStats& load, Result& r);

/// Checks every read of `records[first..]` against its direct reference
/// (status ok, same output digest; open-loop references serially, the rest
/// on `threads` threads) and appends the served-minus-direct time of each
/// open-loop read to `wait`.
void verify_reads(const std::vector<Record>& records, std::size_t first,
                  Reference& ref, int threads, Result& r,
                  std::vector<double>& wait);

/// Sets pop.* metrics and returns whether every reported percentile (p50
/// and p99 of reads, p50 of cold requests) sits inside one population.
bool population_metrics(const ClassStats& pop, Result& r);

}  // namespace scalbench
