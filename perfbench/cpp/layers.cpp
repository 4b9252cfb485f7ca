#include "layers.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/apps.hpp"
#include "core/scaltool.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "machine/machine_config.hpp"
#include "plan/planner.hpp"
#include "runner/archive.hpp"
#include "runner/runner.hpp"
#include "trace.hpp"

namespace scalbench {

namespace st = scaltool;

std::vector<std::string> Matrix::args() const {
  return {app, "--size=" + std::to_string(s0),
          "--max-procs=" + std::to_string(max_procs),
          "--iters=" + std::to_string(iters)};
}

st::serve::Request make_request(const std::string& op,
                                std::vector<std::string> args) {
  st::serve::Request req;
  req.op = op;
  req.args = std::move(args);
  return req;
}

std::vector<std::string> concat(std::vector<std::string> head,
                                const std::vector<std::string>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

std::size_t l2_bytes() {
  return st::MachineConfig::origin2000_scaled(1).l2.size_bytes;
}

Matrix small_matrix(const std::string& app, std::size_t offset) {
  return Matrix{app, 2 * l2_bytes() + 64 * offset, 8, 2};
}

std::vector<std::string> read_flags(Rng& rng, const std::string& op) {
  std::vector<std::string> flags;
  if (op == "analyze") {
    for (const char* f : {"--chart", "--sharing", "--robust-fit"})
      if (rng.chance(50.0)) flags.push_back(f);
    return flags;
  }
  // One or two distinct knobs; scales 0.50..2.00 in steps of 0.01 except
  // 1.00 (every flag changes the answer) and L2 multipliers 2..16, so a
  // fresh read practically never repeats by chance.
  static const char* const kKnobs[] = {"--l2x=", "--tm-scale=", "--t2-scale=",
                                       "--tsyn-scale=", "--pi0-scale="};
  const std::size_t first = rng.below(5);
  const std::size_t count = 1 + rng.below(2);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t knob = (first + 2 * i) % 5;
    std::string value;
    if (knob == 0) {
      value = std::to_string(2 + rng.below(15));
    } else {
      std::size_t hundredths = 50 + rng.below(150);
      if (hundredths >= 100) ++hundredths;
      value = std::to_string(hundredths / 100) + "." +
              std::to_string(hundredths / 10 % 10) +
              std::to_string(hundredths % 10);
    }
    flags.push_back(std::string(kKnobs[knob]) + value);
  }
  return flags;
}

std::map<std::string, std::string> load_pins(const std::string& path) {
  std::map<std::string, std::string> pins;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (ls >> key >> value) pins[key] = value;
  }
  return pins;
}

std::vector<std::uint32_t> layer_pass(const std::vector<Matrix>& matrices,
                                      int jobs, bool adaptive, Result& r) {
  st::register_standard_workloads();
  Tracer& tracer = Tracer::instance();
  tracer.enable(true);
  const std::size_t first_span = tracer.spans().size();

  double runs = 0, accesses = 0, l1_hits = 0, l2_hits = 0, l2_misses = 0,
         remote = 0, invalidations = 0, busy_s = 0, n_jobs = 0;
  double plan_ms = 0, assemble_ms = 0, commit_ms = 0, load_ms = 0,
         analyze_ms = 0, whatif_ms = 0, report_ms = 0;
  auto timed = [](double& acc, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    acc += ms_between(t0, Clock::now());
  };

  std::vector<std::uint32_t> crcs;
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const Matrix& m = matrices[i];
    st::ExperimentRunner runner(st::MachineConfig::origin2000_scaled(1));
    runner.iterations = m.iters;
    const std::vector<int> counts = st::default_proc_counts(m.max_procs);
    const Span pass("bench.pass", i + 1);

    st::MatrixPlan plan;
    timed(plan_ms, [&] {
      const Span s("runner.plan_matrix", i + 1);
      plan = runner.plan_matrix(m.app, m.s0, counts);
    });
    n_jobs += static_cast<double>(plan.jobs.size());
    std::vector<st::JobOutcome> outcomes(plan.jobs.size());
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      const st::RunSpec& spec = plan.jobs[j];
      double ms = 0.0;
      st::RunResult run;
      timed(ms, [&] {
        const Span s("machine.run_full", i + 1);
        run = runner.run_full(spec.workload, spec.dataset_bytes,
                              spec.num_procs);
      });
      busy_s += ms / 1000.0;
      ++runs;
      const st::CounterSet c = run.counters.aggregate();
      const double acc = c.get(st::EventId::kGraduatedLoads) +
                         c.get(st::EventId::kGraduatedStores);
      const double l1_miss = c.get(st::EventId::kL1DMisses);
      const double l2_miss = c.get(st::EventId::kL2Misses);
      accesses += acc;
      l1_hits += acc - l1_miss;
      l2_hits += l1_miss - l2_miss;
      l2_misses += l2_miss;
      remote += c.get(st::EventId::kRemoteMemAccesses);
      invalidations += c.get(st::EventId::kInvalidationsReceived);
      outcomes[j].record = st::make_record(run);
      outcomes[j].validation = st::make_validation(run);
    }

    st::ScalToolInputs inputs;
    timed(assemble_ms, [&] {
      const Span s("runner.assemble_matrix", i + 1);
      inputs = st::assemble_matrix(plan, outcomes);
    });
    const std::string path = "layer-pass-" + std::to_string(i) + ".dat";
    timed(commit_ms, [&] {
      const Span s("archive.commit_archive", i + 1);
      crcs.push_back(st::commit_archive(inputs, path));
    });
    st::ScalToolInputs loaded;
    timed(load_ms, [&] {
      const Span s("archive.load_inputs", i + 1);
      loaded = st::load_inputs(path);
    });
    std::remove(path.c_str());
    st::ScalabilityReport report;
    timed(analyze_ms, [&] {
      const Span s("core.analyze", i + 1);
      report = st::analyze(loaded);
    });
    st::WhatIfResult whatif;
    timed(whatif_ms, [&] {
      const Span s("core.what_if", i + 1);
      st::WhatIfParams params;
      params.l2_scale_k = 2.0;
      whatif = st::what_if(report, loaded, params);
    });
    timed(report_ms, [&] {
      const Span s("core.report", i + 1);
      std::ostringstream os;
      os << st::model_summary(report);
      st::speedup_table(loaded).print(os);
      st::breakdown_table(report).print(os);
      st::validation_table(report, loaded).print(os);
      st::whatif_table(whatif, "layer pass").print(os);
    });
  }

  // The engine at the workload's parallelism, cold, over the same matrices.
  double execute_s = 0, util = 0, jobs_run = 0, jobs_cached = 0;
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const Matrix& m = matrices[i];
    st::ExperimentRunner runner(st::MachineConfig::origin2000_scaled(1));
    runner.iterations = m.iters;
    const st::MatrixPlan plan = runner.plan_matrix(
        m.app, m.s0, st::default_proc_counts(m.max_procs));
    st::CampaignOptions options;
    options.jobs = jobs;
    st::CampaignEngine engine(runner, options);
    double ms = 0.0;
    timed(ms, [&] {
      const Span s("engine.execute", i + 1);
      engine.execute(plan);
    });
    execute_s += ms / 1000.0;
    util += engine.stats().utilization() / static_cast<double>(matrices.size());
    jobs_run += static_cast<double>(engine.stats().jobs_run);
    jobs_cached += static_cast<double>(engine.stats().jobs_cached);
  }

  double bought = 0, skipped = 0;
  if (adaptive) {
    for (std::size_t i = 0; i < matrices.size(); ++i) {
      const Matrix& m = matrices[i];
      st::ExperimentRunner runner(st::MachineConfig::origin2000_scaled(1));
      runner.iterations = m.iters;
      st::plan::AdaptivePlanner planner(runner, st::CampaignOptions{},
                                        st::plan::PlannerOptions{});
      const Span s("plan.run", i + 1);
      const st::plan::PlannerResult res =
          planner.run(m.app, m.s0, st::default_proc_counts(m.max_procs));
      bought += static_cast<double>(res.runs_used);
      skipped += static_cast<double>(res.runs_total - res.runs_used);
    }
  }

  r.set("machine.runs", runs);
  r.set("machine.accesses", accesses);
  r.set("machine.l1_hits", l1_hits);
  r.set("machine.l2_hits", l2_hits);
  r.set("machine.l2_misses", l2_misses);
  r.set("machine.remote_misses", remote);
  r.set("machine.invalidations", invalidations);
  r.set("machine.busy_s", busy_s);
  r.set("machine.ns_per_access", accesses > 0 ? busy_s * 1e9 / accesses : 0);
  r.set("runner.plan_ms", plan_ms);
  r.set("runner.jobs", n_jobs);
  r.set("runner.assemble_ms", assemble_ms);
  r.set("engine.execute_s", execute_s);
  r.set("engine.pool_util", util);
  r.set("engine.jobs_run", jobs_run);
  r.set("engine.jobs_cached", jobs_cached);
  r.set("archive.commit_ms", commit_ms);
  r.set("archive.load_ms", load_ms);
  r.set("core.analyze_ms", analyze_ms);
  r.set("core.whatif_ms", whatif_ms);
  r.set("core.report_ms", report_ms);
  r.set("plan.runs", bought);
  r.set("plan.runs_skipped", skipped);

  std::vector<SpanRecord> spans = tracer.spans();
  spans.erase(spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(first_span));
  const std::map<std::string, double> self = self_ms_by_layer(spans);
  for (const char* layer :
       {"machine", "runner", "engine", "archive", "core", "plan"}) {
    const auto it = self.find(layer);
    r.set(std::string("self.") + layer + "_ms",
          it == self.end() ? 0.0 : it->second);
  }
  r.set("self.uncovered_pct", uncovered_pct(spans, "bench.pass"));
  return crcs;
}

st::ScalToolInputs collect_inputs(const Matrix& m,
                                  const std::shared_ptr<st::RunCache>& cache) {
  st::ExperimentRunner runner(st::MachineConfig::origin2000_scaled(1));
  runner.iterations = m.iters;
  st::CampaignOptions options;
  options.shared_cache = cache;
  st::CampaignEngine engine(runner, options);
  return engine.collect(m.app, m.s0, st::default_proc_counts(m.max_procs));
}

void latency_metrics(const std::vector<Record>& records, const LoadStats& load,
                     Result& r) {
  std::vector<std::pair<double, double>> reads, cold;  // (due time, latency)
  for (const Record& rec : records) {
    if (!rec.open) continue;
    (rec.job.kind == Kind::kRead ? reads : cold)
        .push_back({rec.at_s, rec.latency_ms});
  }
  r.set("read_p50_ms", windowed_percentile(reads, 50, 1.0, 20));
  r.set("load.read_p99_ms", windowed_percentile(reads, 99, 2.0, 100));
  r.set("cold_p50_ms", windowed_percentile(cold, 50, 2.0, 4));
  r.set("capacity_rps", median(load.closed_rps));
}

void load_metrics(const LoadStats& load, Result& r) {
  r.set("load.lag_p99_ms", percentile(load.lag_ms, 99));
  r.set("load.offered", static_cast<double>(load.offered));
  r.set("load.completed", static_cast<double>(load.completed));
  r.set("load.backlog_grew", load.backlog_grew ? 1.0 : 0.0);
  if (load.backlog_grew)
    std::cerr << "scalbench: open-loop backlog grew during the run\n";
}

void verify_reads(const std::vector<Record>& records, std::size_t first,
                  Reference& ref, int threads, Result& r,
                  std::vector<double>& wait) {
  // Open-loop references run serially first, in answer order, so their
  // direct times are uncontended (queue_wait, and the campaign time of a
  // cold request whose reference simulates); the rest run in parallel.
  std::vector<st::serve::Request> rest;
  for (std::size_t i = first; i < records.size(); ++i) {
    const Record& rec = records[i];
    if (!rec.job.archive.empty()) continue;
    if (rec.open)
      ref.expect(rec.job.request);
    else
      rest.push_back(rec.job.request);
  }
  ref.prefetch(rest, threads);
  for (std::size_t i = first; i < records.size(); ++i) {
    const Record& rec = records[i];
    if (!rec.job.archive.empty()) continue;  // writes are checked by CRC
    ++r.attempted;
    const Reference::Answer& want = ref.expect(rec.job.request);
    if (rec.status != st::serve::Status::kOk || rec.exit_code != 0 ||
        want.exit_code != 0 || rec.output_digest != want.digest) {
      std::string what = rec.job.request.op;
      for (const std::string& a : rec.job.request.args) what += " " + a;
      r.fail(std::string("served ") + st::serve::status_name(rec.status) +
             " answer differs from direct exec: " + what);
    }
    if (rec.open) wait.push_back(rec.served_ms - want.ms);
  }
}

bool population_metrics(const ClassStats& pop, Result& r) {
  r.set("pop.read_hit_pct", pop.read.pct(pop.read.hits));
  r.set("pop.read_sim_pct", pop.read.pct(pop.read.sims));
  r.set("pop.read_scatter_pct", pop.read.pct(pop.read.scattered));
  r.set("pop.cold_hit_pct", pop.cold.pct(pop.cold.hits));
  r.set("pop.cold_sim_pct", pop.cold.pct(pop.cold.sims));
  r.set("pop.cold_scatter_pct", pop.cold.pct(pop.cold.scattered));
  const bool inside = pop.read.inside(50.0, 10.0) &&
                      pop.read.inside(99.0, 2.0) &&
                      pop.cold.inside(50.0, 10.0);
  r.set("pop.inside", inside ? 1.0 : 0.0);
  return inside;
}

}  // namespace scalbench
