// Shared pieces of the scalbench program: options, the result record,
// timing, statistics, direct exec_* calls, output digests and the load
// generator the service workloads share.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/inputs.hpp"
#include "serve/exec.hpp"
#include "serve/protocol.hpp"

namespace scalbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point start);
/// CPU time of the whole process (all threads), in seconds.
double process_cpu_seconds();

/// Every load constant of the benchmark. Defaults are overridden by the
/// `--load key=value,...` string recorded in BENCHMARK.json's command.
struct Load {
  int jobs = 4;              ///< engine jobs of table3-cold's collects
  int readers = 2;           ///< table3-cold closed-loop direct readers
  int svc_workers = 2;       ///< AnalysisService workers (serve-mix)
  int svc_engine_jobs = 1;   ///< engine jobs per service campaign
  int shards = 2;            ///< fleet shards, one worker each
  double mix_rate = 100.0;   ///< serve-mix open-loop requests per second
  double write_pct = 4.0;    ///< share of serve-mix requests that are writes
  double analyze_pct = 10.0; ///< share of fresh reads that are `analyze`
  double repeat_pct = 15.0;  ///< share of serve-mix reads that repeat
  int mix_clients = 4;       ///< serve-mix closed-loop concurrency
  double sess_rate = 5.0;    ///< fleet-sessions open-loop sessions per second
  int k = 5;                 ///< follow-up reads per session
  int sess_clients = 2;      ///< fleet-sessions closed-loop sessions
  double open_share = 0.6;   ///< share of a run in the open loop (campaigns
                             ///< on table3-cold)
  int cycles = 10;           ///< open/closed alternations of a service run
  int setup_reps = 7;        ///< set-ups per run (setup_s is their median)

  /// Parses "key=value,..." over the defaults; unknown keys are errors.
  static Load parse(const std::string& spec);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump of a traced run (empty = none)
  std::string pins;       ///< file of pinned output digests
  Load load;
};

/// The benchmark's verdict and metrics, printed as the last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Counts one failed operation and explains it on stderr.
  void fail(const std::string& why);
  /// The result line: the metrics named in `spec` (name, unit), in order.
  /// A metric the workload did not set is an error when `required`, and
  /// reads 0 ("layer not exercised by this workload") otherwise.
  std::string json(
      const std::vector<std::pair<std::string, std::string>>& spec,
      bool required);
};

double percentile(std::vector<double> values, double q);  ///< q in [0,100]
double median(std::vector<double> values);

/// A percentile robust to host stalls: samples (time s, value) are cut
/// into `window_s` windows, and the result is the median over windows
/// holding at least `min_samples` samples of each window's q-th percentile.
/// Falls back to the plain percentile when fewer than three windows
/// qualify.
double windowed_percentile(const std::vector<std::pair<double, double>>& samples,
                           double q, double window_s, std::size_t min_samples);

/// splitmix64: the seeded generator behind every request sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                     ///< [0, 1)
  std::size_t below(std::size_t n);     ///< [0, n)
  bool chance(double pct) { return uniform() * 100.0 < pct; }

 private:
  std::uint64_t state_;
};

std::uint64_t digest(const std::string& bytes);
/// CRC-32 of a file's bytes (the archive checksum), 0 when unreadable.
std::uint32_t file_crc(const std::string& path);

/// One exec_* call made directly, without the service.
struct Direct {
  int exit_code = -1;
  std::string output;
  std::string error;  ///< CheckError text when the call threw
  double ms = 0.0;
  double cpu_s = 0.0;
};
Direct run_direct(const std::string& op, const std::vector<std::string>& args,
                  const scaltool::serve::ExecHooks& hooks = {});

/// The direct reference a served answer is checked against: the same
/// request through exec_* in this process, over the benchmark's own run
/// cache (so replays are replays here too). Memoized per request.
class Reference {
 public:
  Reference();
  struct Answer {
    std::uint64_t digest = 0;
    double ms = 0.0;  ///< direct exec time of the first (memoized) call
    double cpu_s = 0.0;
    int exit_code = 0;
  };
  const Answer& expect(const scaltool::serve::Request& request);
  /// Computes the answers of `requests` not yet memoized on `threads`
  /// threads (answers are deterministic; only their timings would suffer
  /// from the sharing, and they are not used).
  void prefetch(const std::vector<scaltool::serve::Request>& requests,
                int threads);
  /// Unmemoized call over a run cache of its own (for writes, whose
  /// output names their archive and whose matrix is new), so the
  /// reference does not grow with the number of writes a run completes.
  Direct run(const std::string& op, const std::vector<std::string>& args);
  std::shared_ptr<scaltool::RunCache> cache() const { return hooks_.shared_cache; }
  /// Drops the memoized answers (the run cache stays warm).
  void forget() { memo_.clear(); }

 private:
  scaltool::serve::ExecHooks hooks_;
  std::map<std::string, Answer> memo_;  ///< filled by one thread at a time
};

/// Runs fn(0..n-1) on `threads` threads.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

/// Mean |Scal-Tool MP estimate − speedshop MP| as % of base cycles over
/// every n > 1 of every input set (the validation table's
/// diff_pct_of_base, absolute).
double mp_err_pct(const std::vector<scaltool::ScalToolInputs>& sets);

/// Peak RSS of this process plus the given children (VmHWM), in MB.
double peak_rss_mb(const std::vector<pid_t>& children);

/// Latency populations of one class, by request kind: result-cache hits
/// (fastest), plain replays, simulating requests (cold matrices and
/// scattered follow-ups, slowest).
struct Population {
  std::uint64_t n = 0;
  std::uint64_t hits = 0;
  std::uint64_t sims = 0;
  std::uint64_t scattered = 0;  ///< subset of sims: cold-shard follow-ups

  double pct(std::uint64_t part) const {
    return n == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                              static_cast<double>(n);
  }
  /// True when percentile q sits inside one population: no boundary
  /// between populations lies within `margin` points of q.
  bool inside(double q, double margin) const;
};

/// ---- Load generator (serve-mix and fleet-sessions) ----

enum class Kind { kRead, kCold };

/// One request of a flow plus what the benchmark knows about it.
struct Job {
  scaltool::serve::Request request;
  Kind kind = Kind::kRead;
  bool simulates = false;  ///< needs simulator runs by construction
  bool scattered = false;  ///< follow-up routed to a shard without its matrix
  std::string archive;     ///< write target (checked by CRC), or empty
};

/// A flow is a chain: each request is sent when the previous answer
/// arrives (serve-mix flows have one request, fleet sessions 1 + k).
using Flow = std::vector<Job>;

struct Record {
  Job job;
  bool open = false;        ///< open-loop phase (else closed)
  double at_s = 0.0;        ///< due time, seconds after the load started
  double latency_ms = 0.0;  ///< from due time (open) or send time (closed)
  double served_ms = 0.0;   ///< from send time
  scaltool::serve::Status status = scaltool::serve::Status::kOk;
  int exit_code = 0;
  bool cached = false;
  std::uint64_t output_digest = 0;
  std::string output;  ///< kept only for writes (path-dependent text)
};

struct LoadStats {
  std::vector<double> lag_ms;  ///< generator lateness per open-loop flow
  std::uint64_t offered = 0;   ///< open-loop requests sent
  std::uint64_t completed = 0; ///< open-loop requests answered
  bool backlog_grew = false;
  std::vector<double> closed_rps;  ///< ok answers/s of each closed window
};

using Submit = std::function<std::future<scaltool::serve::Response>(
    scaltool::serve::Request)>;

/// Called after each cycle, once its last request is answered and the
/// system under test is idle, with the records that cycle appended
/// (`out[first..]`). The service workloads check them here, so checks
/// and their direct timings are spread over the whole run.
using CycleHook =
    std::function<void(const std::vector<Record>& out, std::size_t first)>;

/// Alternates `cycles` times between an open-loop phase (flows start at
/// `rate` per second, `open_s / cycles` seconds) and a closed-loop phase
/// (`clients` flows always active for `closed_s / cycles` seconds), from
/// this one thread, so both phases sample the whole run. `next_flow`
/// yields the seeded flow sequence. Every answered request is appended to
/// `out`; while tracing, each also becomes a `span_name` span from send
/// to answer. Once `after_cycle` has seen a cycle's records, their
/// requests and outputs are dropped, so the benchmark's own memory does
/// not grow with the number of requests a run completes.
LoadStats drive_load(const Submit& submit, const std::string& span_name,
                     const std::function<Flow()>& next_flow,
                     double rate, double open_s, int clients,
                     double closed_s, int cycles,
                     const CycleHook& after_cycle, std::vector<Record>& out);

/// Statistics shared by the two service workloads.
struct ClassStats {
  Population read, cold;
};
ClassStats populations(const std::vector<Record>& records);

}  // namespace scalbench
