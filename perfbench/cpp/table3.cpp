// table3-cold: the paper's three applications at the paper's L2 ratios and
// 32 processors, each rep a user's cold sequence (collect --jobs, analyze
// the archive, one whatif) followed by a burst of a closed loop of direct
// reads over the archives it committed.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "cli/args.hpp"
#include "core/scaltool.hpp"
#include "layers.hpp"
#include "runner/archive.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace scalbench {

namespace st = scaltool;

namespace {

std::vector<Matrix> paper_matrices() {
  const std::size_t l2 = l2_bytes();
  return {Matrix{"t3dheat", 10 * l2, 32, 12},
          Matrix{"hydro2d", st::parse_size("2.6xL2", l2), 32, 12},
          Matrix{"swim", 4 * l2, 32, 12}};
}

/// The expected `whatif <archive> <flags>` output, rendered by the core
/// functions directly rather than through exec_whatif.
std::string expected_whatif(const std::string& archive,
                            const std::vector<std::string>& flags) {
  const st::Args args(concat({"whatif", archive}, flags));
  st::WhatIfParams params;
  params.l2_scale_k = args.get_double("l2x", 1.0);
  params.tm_scale = args.get_double("tm-scale", 1.0);
  params.t2_scale = args.get_double("t2-scale", 1.0);
  params.tsyn_scale = args.get_double("tsyn-scale", 1.0);
  params.pi0_scale = args.get_double("pi0-scale", 1.0);
  const st::ScalToolInputs inputs = st::load_inputs(archive);
  const st::ScalabilityReport report = st::analyze(inputs);
  std::ostringstream os;
  st::whatif_table(st::what_if(report, inputs, params), "CLI scenario")
      .print(os);
  return os.str();
}

struct Read {
  std::string op;
  std::vector<std::string> args;
  double at_s = 0.0;  ///< start, seconds into the measured time
  double ms = 0.0;
  int exit_code = 0;
  std::uint64_t digest = 0;
  bool in_window = false;
};

struct Pass {
  std::vector<double> set_wall, set_cpu, collect_ms;
  std::vector<std::pair<double, double>> reads;  ///< (start s, latency ms)
  double read_seconds = 0.0;
  std::uint64_t reads_ok = 0;
};

/// Percentile q of the pass's read latencies over 1-s windows.
double read_percentile(const Pass& p, double q, std::size_t min_samples) {
  return windowed_percentile(p.reads, q, 1.0, min_samples);
}

/// A burst of the closed read loop: `readers` callers send direct
/// analyze/whatif reads with seeded flags over `archives` for `burst_s`,
/// starting `at_s` seconds into the pass's measured time. Then each distinct read of the burst, run once more serially, must give
/// the same bytes; only the reads' timings are kept, so the benchmark's
/// own memory does not grow with the number of reads a run completes.
void read_burst(const Options& opt, const std::vector<std::string>& archives,
                double burst_s, double at_s, std::uint64_t burst, Pass& pass,
                Result& r) {
  const auto burst_start = Clock::now();
  const auto end = burst_start +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(burst_s));
  std::vector<std::vector<Read>> per_thread(
      static_cast<std::size_t>(opt.load.readers));
  std::vector<std::thread> threads;
  for (int t = 0; t < opt.load.readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(opt.seed * 7919 + burst * 131 + static_cast<std::uint64_t>(t));
      std::vector<Read>& out = per_thread[static_cast<std::size_t>(t)];
      while (Clock::now() < end) {
        Read rd;
        rd.op = rng.chance(50.0) ? "analyze" : "whatif";
        rd.args = concat({archives[rng.below(archives.size())]},
                         read_flags(rng, rd.op));
        rd.at_s = at_s + seconds_since(burst_start);
        Direct d;
        {
          const Span s("exec." + rd.op, out.size() + 1);
          d = run_direct(rd.op, rd.args);
        }
        rd.ms = d.ms;
        rd.exit_code = d.exit_code;
        rd.digest = digest(d.output);
        rd.in_window = Clock::now() <= end;
        out.push_back(std::move(rd));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.read_seconds += burst_s;
  std::map<std::string, std::uint64_t> expected;
  for (const std::vector<Read>& v : per_thread)
    for (const Read& rd : v) {
      ++r.attempted;
      std::string key = rd.op;
      for (const std::string& a : rd.args) key += " " + a;
      auto it = expected.find(key);
      if (it == expected.end())
        it = expected.emplace(key, digest(run_direct(rd.op, rd.args).output))
                 .first;
      if (rd.exit_code != 0 || rd.digest != it->second)
        r.fail("concurrent read differs from serial: " + key);
      if (rd.exit_code == 0 && rd.in_window) ++pass.reads_ok;
      pass.reads.push_back({rd.at_s, rd.ms});
    }
}

/// One measured pass: campaign reps until the run's measured time (the
/// campaigns' and the bursts') is up, each followed by a burst of direct
/// reads over the archives it committed. The bursts take (1 - open_share)
/// of that time, so campaigns and reads both sample the whole run rather
/// than one end of it.
Pass measure(const Options& opt, const std::map<std::string, std::string>& pins,
             Rng& rng, Result& r) {
  const Load& load = opt.load;
  const std::vector<Matrix> apps = paper_matrices();
  const std::string jobs = "--jobs=" + std::to_string(load.jobs);
  Pass pass;
  std::vector<std::string> kept;  // archives of the latest rep

  struct WhatIf {
    std::size_t app;
    std::vector<std::string> flags;
    std::string output;
  };
  std::vector<WhatIf> whatifs;

  double measured_s = 0.0;
  for (int rep = 0; rep < 3 || measured_s < opt.seconds; ++rep) {
    std::vector<std::size_t> order = {0, 1, 2};
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    for (const std::string& path : kept) std::remove(path.c_str());
    kept.assign(apps.size(), "");

    {
      const Span set_span("bench.campaign",
                          static_cast<std::uint64_t>(rep) + 1);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      for (std::size_t a : order) {
        const Matrix& m = apps[a];
        // Same path every rep (deleted before it), so the reads of every
        // burst can be rerun against the last rep's identical bytes.
        const std::string archive = "c-" + m.app + ".dat";
        kept[a] = archive;
        r.attempted += 3;
        Direct c;
        {
          const Span s("exec.collect", a + 1);
          c = run_direct("collect",
                         concat(m.args(), {jobs, "--out=" + archive}));
        }
        pass.collect_ms.push_back(c.ms);
        if (c.exit_code != 0) r.fail("collect " + m.app + ": " + c.error);
        const std::string crc = std::to_string(file_crc(archive));
        const auto pin = pins.find("table3.archive." + m.app);
        if (pin == pins.end() || pin->second != crc)
          r.fail("archive " + m.app + " crc " + crc + " != pinned " +
                 (pin == pins.end() ? std::string("(none)") : pin->second));

        Direct an;
        {
          const Span s("exec.analyze", a + 1);
          an = run_direct("analyze", {archive});
        }
        const std::string dig = std::to_string(digest(an.output));
        const auto apin = pins.find("table3.analyze." + m.app);
        if (an.exit_code != 0 || apin == pins.end() || apin->second != dig)
          r.fail("analyze " + m.app + " digest " + dig + " != pinned " +
                 (apin == pins.end() ? std::string("(none)") : apin->second));

        const std::vector<std::string> flags = read_flags(rng, "whatif");
        Direct w;
        {
          const Span s("exec.whatif", a + 1);
          w = run_direct("whatif", concat({archive}, flags));
        }
        if (w.exit_code != 0) r.fail("whatif " + m.app + ": " + w.error);
        whatifs.push_back({a, flags, std::move(w.output)});
      }
      pass.set_wall.push_back(seconds_since(t0));
      pass.set_cpu.push_back(process_cpu_seconds() - cpu0);
    }
    const double burst_s =
        pass.set_wall.back() * (1.0 - load.open_share) / load.open_share;
    read_burst(opt, kept, burst_s, measured_s + pass.set_wall.back(),
               static_cast<std::uint64_t>(rep), pass, r);
    measured_s += pass.set_wall.back() + burst_s;
  }

  // Every rep's archives are byte-identical (pinned CRC), so the kept ones
  // check every rep's whatif answer.
  for (const WhatIf& w : whatifs)
    if (w.output != expected_whatif(kept[w.app], w.flags))
      r.fail("whatif output differs from the core's rendering");

  std::vector<st::ScalToolInputs> inputs;
  for (const std::string& path : kept) inputs.push_back(st::load_inputs(path));
  r.set("mp_err_pct", mp_err_pct(inputs));
  for (const std::string& path : kept) std::remove(path.c_str());
  return pass;
}

double setup_once(const Load& load, Result& r) {
  const auto t0 = Clock::now();
  // Fixed warm-up, the same every run: one cold collect + analyze per
  // application (2xL2, 16 processors) through the engine pool.
  for (const char* app : kApps) {
    const Matrix m{app, 2 * l2_bytes(), 16, 4};
    const std::string archive = std::string("warm-") + app + ".dat";
    r.attempted += 2;
    const Direct c = run_direct(
        "collect", concat(m.args(), {"--jobs=" + std::to_string(load.jobs),
                                   "--out=" + archive}));
    const Direct a = run_direct("analyze", {archive});
    if (c.exit_code != 0 || a.exit_code != 0)
      r.fail(std::string("warm-up ") + app + ": " + c.error + a.error);
    std::remove(archive.c_str());
  }
  return seconds_since(t0);
}

}  // namespace

Result run_table3(const Options& opt, Clock::time_point main_start) {
  Result r;
  const auto pins = load_pins(opt.pins);
  // Half the set-ups (the first timed from process start) come before
  // the measured pass and the rest follow it, so setup_s samples both
  // ends of the run.
  const int before = (opt.load.setup_reps + 1) / 2;
  std::vector<double> setups;
  for (int i = 0; i < before; ++i) {
    const double s = setup_once(opt.load, r);
    setups.push_back(i == 0 ? seconds_since(main_start) : s);
  }

  Rng rng(opt.seed);
  const Pass plain = measure(opt, pins, rng, r);
  for (int i = before; i < opt.load.setup_reps; ++i)
    setups.push_back(setup_once(opt.load, r));
  r.set("setup_s", median(setups));
  r.set("campaign_s", median(plain.set_wall));
  r.set("campaign_cpu_s", median(plain.set_cpu));
  r.set("read_p50_ms", read_percentile(plain, 50, 20));
  r.set("load.read_p99_ms", read_percentile(plain, 99, 100));
  r.set("cold_p50_ms", median(plain.collect_ms));
  r.set("capacity_rps", static_cast<double>(plain.reads_ok) /
                            std::max(plain.read_seconds, 1e-9));

  ClassStats pop;
  pop.read.n = plain.reads.size();
  pop.cold.n = pop.cold.sims = plain.collect_ms.size();
  const bool inside = population_metrics(pop, r);
  report_populations(pop, inside);

  if (opt.trace) {
    Tracer::instance().enable(true);
    Rng trng(opt.seed);
    const Pass traced = measure(opt, pins, trng, r);
    Tracer::instance().enable(false);
    r.set("trace.overhead_campaign_pct",
          100.0 * (median(traced.set_wall) / median(plain.set_wall) - 1.0));
    r.set("trace.overhead_read_p50_pct",
          100.0 * (read_percentile(traced, 50, 20) /
                       read_percentile(plain, 50, 20) -
                   1.0));
    const std::vector<std::uint32_t> crcs =
        layer_pass(paper_matrices(), opt.load.jobs, false, r);
    const std::vector<Matrix> apps = paper_matrices();
    for (std::size_t i = 0; i < apps.size(); ++i) {
      ++r.attempted;
      const auto pin = pins.find("table3.archive." + apps[i].app);
      if (pin == pins.end() || pin->second != std::to_string(crcs[i]))
        r.fail("layer pass archive of " + apps[i].app + " != pinned");
    }
  }
  r.set("peak_rss_mb", peak_rss_mb({}));
  return r;
}

}  // namespace scalbench
