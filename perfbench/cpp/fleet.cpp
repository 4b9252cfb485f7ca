// fleet-sessions: a 2-shard serve::Fleet under analysis sessions. Each
// session opens with an `analyze` of a small matrix that is new by
// construction, then sends k follow-up reads over that matrix with
// distinct analysis-only flags, each when the previous answer arrives.
// The router hashes every argument, so follow-ups scatter across shards
// and a shard that has not seen the matrix simulates it again.
#include <memory>
#include <set>

#include "engine/run_cache.hpp"
#include "obs/json.hpp"
#include "runner/runner.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/ring.hpp"
#include "serve/transport.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace scalbench {

namespace st = scaltool;
namespace serve = scaltool::serve;

namespace {

/// Fixed warm-up matrices (one per app), the same every run.
std::vector<Matrix> warm_matrices() {
  std::vector<Matrix> out;
  for (const char* app : kApps) out.push_back(small_matrix(app, 1));
  return out;
}

std::unique_ptr<serve::Fleet> start_fleet(const Load& load, Result& r) {
  serve::FleetOptions fo;
  fo.supervisor.shards = load.shards;
  fo.supervisor.socket_dir = ".";
  fo.supervisor.worker.workers = 1;
  fo.supervisor.worker.engine_jobs = load.svc_engine_jobs;
  auto fleet = std::make_unique<serve::Fleet>(fo);
  ++r.attempted;
  if (!fleet->supervisor().wait_ready(10000)) r.fail("fleet did not come up");
  for (const Matrix& m : warm_matrices()) {
    ++r.attempted;
    const serve::Response resp = fleet->call(make_request("analyze", m.args()));
    if (resp.status != serve::Status::kOk)
      r.fail("fleet warm-up " + m.app + ": " + resp.error);
  }
  return fleet;
}

/// The seeded session sequence. Which shard each request lands on is
/// computed from the router's own key and ring, so a follow-up is known
/// to be scattered (its shard has not seen the matrix) before it is sent.
class SessionSource {
 public:
  SessionSource(const Options& opt, int shards)
      : k_(opt.load.k), rng_(opt.seed * 2654435761ULL + 17), ring_(shards) {}

  Flow next() {
    const Matrix m = small_matrix(kApps[rng_.below(3)], 2 + sessions_++);
    matrices_.push_back(m);
    Flow flow;
    Job opener;
    opener.request = make_request("analyze", m.args());
    opener.kind = Kind::kCold;
    opener.simulates = true;
    std::set<int> seen = {shard_of(opener.request)};
    flow.push_back(opener);
    // Distinct flags: no follow-up repeats the opener or another follow-up.
    std::set<std::vector<std::string>> used = {
        concat({"analyze"}, opener.request.args)};
    while (static_cast<int>(flow.size()) < 1 + k_) {
      const std::string op = rng_.chance(50.0) ? "analyze" : "whatif";
      std::vector<std::string> args = concat(m.args(), read_flags(rng_, op));
      if (!used.insert(concat({op}, args)).second) continue;
      Job follow;
      follow.request = make_request(op, std::move(args));
      follow.scattered = seen.insert(shard_of(follow.request)).second;
      follow.simulates = follow.scattered;
      flow.push_back(std::move(follow));
    }
    return flow;
  }

  /// Every session matrix so far, in order.
  const std::vector<Matrix>& matrices() const { return matrices_; }

 private:
  int shard_of(const serve::Request& req) const {
    return ring_.pick(serve::FleetRouter::routing_key(req));
  }

  int k_;
  Rng rng_;
  serve::HashRing ring_;
  std::size_t sessions_ = 0;
  std::vector<Matrix> matrices_;
};

/// Distinct simulator runs the fleet's traffic needs: the union of the
/// job keys of every matrix it was asked about.
std::size_t distinct_runs(const std::vector<Matrix>& matrices) {
  std::set<std::uint64_t> keys;
  for (const Matrix& m : matrices) {
    st::ExperimentRunner runner(st::MachineConfig::origin2000_scaled(1));
    runner.iterations = m.iters;
    const st::MatrixPlan plan = runner.plan_matrix(
        m.app, m.s0, st::default_proc_counts(m.max_procs));
    for (const st::RunSpec& spec : plan.jobs)
      keys.insert(st::job_key_hash(spec, runner.base_config(), m.iters));
  }
  return keys.size();
}

struct ShardStats {
  double sim_runs = 0, replayed = 0, hits = 0, misses = 0, coalesced = 0,
         shed = 0;
};

struct Pass {
  std::vector<Record> records;
  LoadStats load;
  ShardStats shards;
  double routed = 0, hedges = 0, rss_mb = 0;
  Matrix first_session;
  std::vector<Matrix> matrices;  ///< warm-up plus every session's
  std::vector<double> opener_ms, opener_cpu, queue_wait;
  Reference ref;
};

std::unique_ptr<Pass> measure(const Options& opt, serve::Fleet& fleet,
                              Result& r) {
  auto pass = std::make_unique<Pass>();
  SessionSource source(opt, opt.load.shards);
  const Submit submit = [&fleet](serve::Request req) {
    return fleet.submit(std::move(req));
  };
  // After each cycle its answers are checked against direct exec_*; an
  // open-loop opener's reference simulates, and its time is the campaign
  // sample.
  const CycleHook check = [&](const std::vector<Record>& recs,
                              std::size_t first) {
    verify_reads(recs, first, pass->ref, opt.load.jobs, r, pass->queue_wait);
    for (std::size_t i = first; i < recs.size(); ++i) {
      if (!recs[i].open || recs[i].job.kind != Kind::kCold) continue;
      const Reference::Answer& a = pass->ref.expect(recs[i].job.request);
      pass->opener_ms.push_back(a.ms);
      pass->opener_cpu.push_back(a.cpu_s);
    }
    pass->ref.forget();
  };
  pass->load = drive_load(
      submit, "fleet.request", [&] { return source.next(); },
      opt.load.sess_rate, opt.seconds * opt.load.open_share,
      opt.load.sess_clients, opt.seconds * (1.0 - opt.load.open_share),
      opt.load.cycles, check, pass->records);

  // Shard counters and memory, read before the fleet stops.
  std::vector<pid_t> pids;
  for (int i = 0; i < opt.load.shards; ++i) {
    pids.push_back(fleet.supervisor().pid_of(i));
    const serve::Request stats = make_request("stats", {});
    ++r.attempted;
    try {
      const serve::Response resp =
          serve::socket_call(fleet.supervisor().socket_of(i), stats, 5000);
      const st::obs::JsonValue v = st::obs::json_parse(resp.stats_json);
      auto num = [&](const char* key) {
        return v.has(key) ? v.at(key).as_number() : 0.0;
      };
      pass->shards.sim_runs += num("simulator_runs");
      pass->shards.replayed += num("cache_served_runs");
      pass->shards.hits += num("result_cache_hits");
      pass->shards.misses += num("result_cache_misses");
      pass->shards.coalesced += num("coalesced_campaigns");
      pass->shards.shed += num("shed");
    } catch (const std::exception& e) {
      r.fail(std::string("shard stats: ") + e.what());
    }
  }
  pass->rss_mb = peak_rss_mb(pids);
  pass->routed = static_cast<double>(fleet.router().routed());
  pass->hedges = static_cast<double>(fleet.router().hedges());
  fleet.stop();
  pass->first_session = source.matrices().front();
  pass->matrices = warm_matrices();
  for (const Matrix& m : source.matrices()) pass->matrices.push_back(m);
  return pass;
}

}  // namespace

Result run_fleet(const Options& opt, Clock::time_point main_start) {
  Result r;
  // Half the set-ups (the first timed from process start) come before
  // the measured pass, which uses the last of them; the rest follow it,
  // so setup_s samples both ends of the run.
  std::vector<double> setups;
  std::unique_ptr<serve::Fleet> fleet;
  for (int i = 0; i < opt.load.setup_reps; ++i) {
    fleet.reset();  // drains and reaps the previous set-up's shards
    const auto t0 = i == 0 ? main_start : Clock::now();
    fleet = start_fleet(opt.load, r);
    setups.push_back(seconds_since(t0));
    if (i + 1 == (opt.load.setup_reps + 1) / 2) break;
  }

  const std::unique_ptr<Pass> plain = measure(opt, *fleet, r);
  fleet.reset();
  while (static_cast<int>(setups.size()) < opt.load.setup_reps) {
    const auto t0 = Clock::now();
    fleet = start_fleet(opt.load, r);
    setups.push_back(seconds_since(t0));
    fleet.reset();
  }
  r.set("setup_s", median(setups));
  latency_metrics(plain->records, plain->load, r);
  r.set("campaign_s", median(plain->opener_ms) / 1000.0);
  r.set("campaign_cpu_s", median(plain->opener_cpu));
  std::vector<st::ScalToolInputs> inputs;
  for (const Matrix& m : warm_matrices())
    inputs.push_back(collect_inputs(m, plain->ref.cache()));
  r.set("mp_err_pct", mp_err_pct(inputs));
  const ClassStats pop = populations(plain->records);
  const bool inside = population_metrics(pop, r);
  report_populations(pop, inside);
  r.set("peak_rss_mb", plain->rss_mb);

  if (opt.trace) {
    load_metrics(plain->load, r);
    const ShardStats& s = plain->shards;
    r.set("serve.queue_wait_ms", median(plain->queue_wait));
    r.set("serve.result_cache_hit_ratio",
          s.hits + s.misses > 0 ? s.hits / (s.hits + s.misses) : 0.0);
    r.set("serve.coalesced", s.coalesced);
    r.set("serve.sim_runs", s.sim_runs);
    r.set("serve.replayed_runs", s.replayed);
    r.set("serve.shed", s.shed);
    r.set("fleet.routed", plain->routed);
    r.set("fleet.hedges", plain->hedges);
    r.set("fleet.sim_runs", s.sim_runs);
    r.set("fleet.dup_sim_runs",
          s.sim_runs - static_cast<double>(distinct_runs(plain->matrices)));

    auto traced_fleet = start_fleet(opt.load, r);  // not part of setup_s
    Tracer::instance().enable(true);
    const std::unique_ptr<Pass> traced = measure(opt, *traced_fleet, r);
    Tracer::instance().enable(false);
    traced_fleet.reset();
    Result t;
    latency_metrics(traced->records, traced->load, t);
    r.set("trace.overhead_campaign_pct",
          100.0 * (median(traced->opener_ms) / median(plain->opener_ms) - 1.0));
    r.set("trace.overhead_read_p50_pct",
          100.0 * (t.values["read_p50_ms"] / r.values["read_p50_ms"] - 1.0));
    layer_pass({plain->first_session}, opt.load.svc_engine_jobs, false, r);
  }
  return r;
}

}  // namespace scalbench
