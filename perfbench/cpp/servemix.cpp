// serve-mix: one in-process AnalysisService under a read/write mix.
// Reads are analysis-only analyze/whatif requests over small matrices
// warmed during set-up (a seeded share repeat exactly, so the result cache
// sometimes hits); writes are `collect --adaptive` of a matrix that is new
// by construction. An open-loop phase at a fixed rate, then a closed loop.
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>

#include "layers.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace scalbench {

namespace st = scaltool;
namespace serve = scaltool::serve;

namespace {

std::vector<Matrix> warm_matrices() {
  std::vector<Matrix> out;
  for (const char* app : kApps) out.push_back(small_matrix(app, 0));
  return out;
}

std::unique_ptr<serve::AnalysisService> start_service(const Load& load,
                                                      Result& r) {
  serve::ServiceOptions so;
  so.workers = load.svc_workers;
  so.engine_jobs = load.svc_engine_jobs;
  auto svc = std::make_unique<serve::AnalysisService>(so);
  for (const Matrix& m : warm_matrices()) {
    ++r.attempted;
    const serve::Response resp = svc->call(make_request("analyze", m.args()));
    if (resp.status != serve::Status::kOk)
      r.fail("serve-mix warm-up " + m.app + ": " + resp.error);
  }
  return svc;
}

/// The seeded request sequence: every flow is a single request.
class MixSource {
 public:
  explicit MixSource(const Options& opt)
      : load_(opt.load), rng_(opt.seed * 1000003), phase_(rng_.below(100)) {}

  Flow next() {
    Job job;
    // Writes come at a fixed period with a seeded phase, so every run of
    // a given length carries the same number of them.
    const std::size_t period =
        static_cast<std::size_t>(100.0 / load_.write_pct + 0.5);
    if ((count_++ + phase_) % period == 0) {
      const Matrix m = small_matrix(kApps[rng_.below(3)], 2 + writes_);
      job.archive =
          std::string("w-").append(std::to_string(writes_)).append(".dat");
      ++writes_;
      job.request = make_request(
          "collect", concat(m.args(), {"--adaptive", "--out=" + job.archive}));
      job.kind = Kind::kCold;
      job.simulates = true;
      if (first_write_.app.empty()) first_write_ = m;
      return {job};
    }
    if (!recent_.empty() && rng_.chance(load_.repeat_pct)) {
      job.request = recent_[rng_.below(recent_.size())];
    } else {
      const std::string op =
          rng_.chance(load_.analyze_pct) ? "analyze" : "whatif";
      job.request = make_request(
          op, concat(small_matrix(kApps[rng_.below(3)], 0).args(),
                     read_flags(rng_, op)));
      recent_.push_back(job.request);
      if (recent_.size() > 64) recent_.pop_front();  // within the LRU
    }
    return {job};
  }

  const Matrix& first_write() const { return first_write_; }

 private:
  const Load& load_;
  Rng rng_;
  std::size_t phase_;
  std::size_t count_ = 0;
  std::size_t writes_ = 0;
  std::deque<serve::Request> recent_;
  Matrix first_write_;
};

/// The cache-independent lines of a collect's output (the plan, the
/// summary), with the archive path cut off.
std::string plan_lines(const std::string& text, const std::string& path) {
  std::istringstream is(text);
  std::string line, out;
  while (std::getline(is, line)) {
    if (line.rfind("adaptive:", 0) != 0 && line.rfind("plan:", 0) != 0 &&
        line.rfind("collected", 0) != 0)
      continue;
    if (const auto at = line.find(path); at != std::string::npos)
      line.erase(at);
    out += line + "\n";
  }
  return out;
}

struct Pass {
  std::vector<Record> records;
  LoadStats load;
  serve::ServiceStats stats;
  std::vector<double> write_ms, write_cpu, queue_wait;
  Matrix first_write;
};

/// Timed cycles against `svc`; after each, its answers are checked
/// against direct exec_*.
Pass measure(const Options& opt, serve::AnalysisService& svc, Result& r) {
  Pass pass;
  MixSource source(opt);
  const Submit submit = [&svc](serve::Request req) {
    return svc.submit(std::move(req));
  };
  Reference ref;
  std::mutex mu;
  // A write is right when the same collect run directly publishes the
  // same archive bytes and reports the same plan.
  auto check_write = [&](const Record& rec, bool sample) {
    std::vector<std::string> args = rec.job.request.args;
    const std::string ref_archive = "ref-" + rec.job.archive;
    args.back() = "--out=" + ref_archive;
    Direct d;
    {
      const Span s("exec.collect");
      d = ref.run("collect", args);
    }
    const std::uint32_t crc = file_crc(rec.job.archive);
    const bool same =
        rec.status == serve::Status::kOk && rec.exit_code == 0 &&
        d.exit_code == 0 && crc != 0 && crc == file_crc(ref_archive) &&
        plan_lines(rec.output, rec.job.archive) ==
            plan_lines(d.output, ref_archive);
    std::remove(rec.job.archive.c_str());
    std::remove(ref_archive.c_str());
    const std::lock_guard<std::mutex> lock(mu);
    ++r.attempted;
    if (!same)
      r.fail("served write " + rec.job.archive + " differs from direct collect");
    if (sample) {
      pass.write_ms.push_back(d.ms);
      pass.write_cpu.push_back(d.cpu_s);
    }
  };
  const CycleHook check = [&](const std::vector<Record>& recs,
                              std::size_t first) {
    verify_reads(recs, first, ref, opt.load.jobs, r, pass.queue_wait);
    ref.forget();
    // Open-loop writes run serially (their direct times are the campaign
    // samples), closed-loop ones in parallel.
    std::vector<const Record*> open_writes, closed_writes;
    for (std::size_t i = first; i < recs.size(); ++i)
      if (!recs[i].job.archive.empty())
        (recs[i].open ? open_writes : closed_writes).push_back(&recs[i]);
    for (const Record* rec : open_writes) check_write(*rec, true);
    parallel_for(closed_writes.size(), opt.load.jobs,
                 [&](std::size_t i) { check_write(*closed_writes[i], false); });
  };
  pass.load = drive_load(
      submit, "serve.request", [&] { return source.next(); },
      opt.load.mix_rate, opt.seconds * opt.load.open_share,
      opt.load.mix_clients, opt.seconds * (1.0 - opt.load.open_share),
      opt.load.cycles, check, pass.records);
  pass.stats = svc.stats();
  svc.shutdown();
  pass.first_write = source.first_write();
  return pass;
}

}  // namespace

Result run_servemix(const Options& opt, Clock::time_point main_start) {
  Result r;
  // Half the set-ups (the first timed from process start) come before
  // the measured pass, which uses the last of them; the rest follow it,
  // so setup_s samples both ends of the run.
  std::vector<double> setups;
  std::unique_ptr<serve::AnalysisService> svc;
  for (int i = 0; i < opt.load.setup_reps; ++i) {
    svc.reset();  // drains the previous set-up's service
    const auto t0 = i == 0 ? main_start : Clock::now();
    svc = start_service(opt.load, r);
    setups.push_back(seconds_since(t0));
    if (i + 1 == (opt.load.setup_reps + 1) / 2) break;
  }

  const Pass plain = measure(opt, *svc, r);
  r.set("peak_rss_mb", peak_rss_mb({}));
  svc.reset();
  while (static_cast<int>(setups.size()) < opt.load.setup_reps) {
    const auto t0 = Clock::now();
    svc = start_service(opt.load, r);
    setups.push_back(seconds_since(t0));
    svc.reset();
  }
  r.set("setup_s", median(setups));
  latency_metrics(plain.records, plain.load, r);
  r.set("campaign_s", median(plain.write_ms) / 1000.0);
  r.set("campaign_cpu_s", median(plain.write_cpu));
  {
    Reference ref;
    std::vector<st::ScalToolInputs> inputs;
    for (const Matrix& m : warm_matrices())
      inputs.push_back(collect_inputs(m, ref.cache()));
    r.set("mp_err_pct", mp_err_pct(inputs));
  }
  const ClassStats pop = populations(plain.records);
  const bool inside = population_metrics(pop, r);
  report_populations(pop, inside);

  if (opt.trace) {
    load_metrics(plain.load, r);
    const serve::ServiceStats& s = plain.stats;
    const double lookups =
        static_cast<double>(s.result_cache_hits + s.result_cache_misses);
    r.set("serve.queue_wait_ms", median(plain.queue_wait));
    r.set("serve.result_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(s.result_cache_hits) / lookups : 0);
    r.set("serve.coalesced", static_cast<double>(s.coalesced_campaigns));
    r.set("serve.sim_runs", static_cast<double>(s.simulator_runs));
    r.set("serve.replayed_runs", static_cast<double>(s.cache_served_runs));
    r.set("serve.shed", static_cast<double>(s.shed));

    auto traced_svc = start_service(opt.load, r);  // not part of setup_s
    Tracer::instance().enable(true);
    const Pass traced = measure(opt, *traced_svc, r);
    Tracer::instance().enable(false);
    traced_svc.reset();
    Result t;
    latency_metrics(traced.records, traced.load, t);
    r.set("trace.overhead_campaign_pct",
          100.0 * (median(traced.write_ms) / median(plain.write_ms) - 1.0));
    r.set("trace.overhead_read_p50_pct",
          100.0 * (t.values["read_p50_ms"] / r.values["read_p50_ms"] - 1.0));
    layer_pass({plain.first_write}, opt.load.svc_engine_jobs, true, r);
  }
  return r;
}

}  // namespace scalbench
