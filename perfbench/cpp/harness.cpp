#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "cli/args.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "core/scaltool.hpp"
#include "trace.hpp"

namespace scalbench {

namespace serve = scaltool::serve;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Load Load::parse(const std::string& spec) {
  Load load;
  const std::map<std::string, double*> reals = {
      {"mix_rate", &load.mix_rate},     {"write_pct", &load.write_pct},
      {"repeat_pct", &load.repeat_pct}, {"sess_rate", &load.sess_rate},
      {"analyze_pct", &load.analyze_pct},
      {"open_share", &load.open_share}};
  const std::map<std::string, int*> ints = {
      {"jobs", &load.jobs},
      {"readers", &load.readers},
      {"svc_workers", &load.svc_workers},
      {"svc_engine_jobs", &load.svc_engine_jobs},
      {"shards", &load.shards},
      {"mix_clients", &load.mix_clients},
      {"k", &load.k},
      {"sess_clients", &load.sess_clients},
      {"cycles", &load.cycles},
      {"setup_reps", &load.setup_reps}};
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    ST_CHECK_MSG(eq != std::string::npos, "--load item without '=': " << item);
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (auto it = reals.find(key); it != reals.end()) {
      *it->second = std::stod(value);
    } else if (auto jt = ints.find(key); jt != ints.end()) {
      *jt->second = std::stoi(value);
    } else {
      ST_CHECK_MSG(false, "unknown --load key: " << key);
    }
  }
  ST_CHECK_MSG(load.jobs >= 1 && load.readers >= 1 && load.svc_workers >= 1 &&
                   load.svc_engine_jobs >= 1 && load.shards >= 1 &&
                   load.mix_clients >= 1 && load.sess_clients >= 1 &&
                   load.k >= 1 && load.cycles >= 1 && load.setup_reps >= 1,
               "--load counts must be positive");
  ST_CHECK_MSG(load.open_share > 0.0 && load.open_share < 1.0,
               "--load open_share must lie in (0, 1)");
  return load;
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failed <= 10) std::cerr << "scalbench: FAIL " << why << "\n";
}

std::string Result::json(
    const std::vector<std::pair<std::string, std::string>>& spec,
    bool required) {
  std::ostringstream metrics;
  metrics << std::setprecision(17);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto& [name, unit] = spec[i];
    double value = 0.0;
    if (auto it = values.find(name); it != values.end()) {
      value = it->second;
    } else if (required) {
      correct = false;
      std::cerr << "scalbench: metric " << name << " was not measured\n";
    }
    if (!std::isfinite(value)) {
      correct = false;
      std::cerr << "scalbench: metric " << name << " is not finite\n";
      value = 0.0;
    }
    metrics << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << value
            << ", \"unit\": \"" << unit << "\"}";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
     << ", \"failed\": " << failed << ", \"metrics\": {" << metrics.str()
     << "}}";
  return os.str();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double windowed_percentile(const std::vector<std::pair<double, double>>& samples,
                           double q, double window_s, std::size_t min_samples) {
  std::map<long, std::vector<double>> windows;
  std::vector<double> all;
  for (const auto& [t, v] : samples) {
    windows[static_cast<long>(t / window_s)].push_back(v);
    all.push_back(v);
  }
  std::vector<double> per_window;
  for (auto& [w, values] : windows)
    if (values.size() >= min_samples)
      per_window.push_back(percentile(values, q));
  return per_window.size() >= 3 ? median(per_window) : percentile(all, q);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

std::uint64_t digest(const std::string& bytes) {
  return serve::fnv1a(serve::kFnvBasis, bytes);
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  std::ostringstream ss;
  ss << is.rdbuf();
  return scaltool::crc32(ss.str());
}

Direct run_direct(const std::string& op, const std::vector<std::string>& args,
                  const serve::ExecHooks& hooks) {
  std::vector<std::string> tokens{op};
  tokens.insert(tokens.end(), args.begin(), args.end());
  Direct d;
  std::ostringstream os;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  try {
    const scaltool::Args parsed(tokens);
    if (op == "collect")
      d.exit_code = serve::exec_collect(parsed, os, hooks);
    else if (op == "analyze")
      d.exit_code = serve::exec_analyze(parsed, os, hooks);
    else if (op == "whatif")
      d.exit_code = serve::exec_whatif(parsed, os, hooks);
    else
      d.error = "unsupported op " + op;
  } catch (const std::exception& e) {
    d.exit_code = 1;
    d.error = e.what();
  }
  d.ms = ms_between(t0, Clock::now());
  d.cpu_s = process_cpu_seconds() - cpu0;
  d.output = os.str();
  return d;
}

Reference::Reference() {
  hooks_.shared_cache = std::make_shared<scaltool::RunCache>();
  hooks_.jobs = 1;
  hooks_.service = true;
}

namespace {

std::string key_of(const serve::Request& request) {
  std::string key = request.op;
  for (const std::string& a : request.args) key += " " + a;
  return key;
}

}  // namespace

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (std::thread& t : pool) t.join();
}

void Reference::prefetch(const std::vector<serve::Request>& requests,
                         int threads) {
  std::map<std::string, const serve::Request*> todo;
  for (const serve::Request& req : requests)
    if (!memo_.contains(key_of(req))) todo.emplace(key_of(req), &req);
  std::vector<std::pair<std::string, const serve::Request*>> items(
      todo.begin(), todo.end());
  std::vector<Answer> answers(items.size());
  parallel_for(items.size(), threads, [&](std::size_t i) {
    const Direct d = run_direct(items[i].second->op, items[i].second->args,
                                hooks_);
    answers[i] = Answer{digest(d.output), d.ms, d.cpu_s, d.exit_code};
  });
  for (std::size_t i = 0; i < items.size(); ++i)
    memo_.emplace(items[i].first, answers[i]);
}

const Reference::Answer& Reference::expect(const serve::Request& request) {
  const std::string key = key_of(request);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    const Direct d = run_direct(request.op, request.args, hooks_);
    it = memo_.emplace(key, Answer{digest(d.output), d.ms, d.cpu_s,
                                   d.exit_code})
             .first;
  }
  return it->second;
}

Direct Reference::run(const std::string& op,
                      const std::vector<std::string>& args) {
  serve::ExecHooks hooks = hooks_;
  hooks.shared_cache = std::make_shared<scaltool::RunCache>();
  return run_direct(op, args, hooks);
}

double mp_err_pct(const std::vector<scaltool::ScalToolInputs>& sets) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const scaltool::ScalToolInputs& inputs : sets) {
    const scaltool::ScalabilityReport report = scaltool::analyze(inputs);
    for (const scaltool::BottleneckPoint& p : report.points) {
      if (p.n <= 1 || p.base_cycles <= 0.0) continue;
      const scaltool::ValidationRecord& v = inputs.validation_for(p.n);
      const double est_curve = p.base_cycles - (p.sync_cost + p.imb_cost);
      const double meas_curve = v.accumulated_cycles - v.mp_cycles;
      sum += 100.0 * std::fabs(est_curve - meas_curve) / p.base_cycles;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

namespace {

double child_hwm_mb(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(const std::vector<pid_t>& children) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  for (pid_t pid : children) mb += child_hwm_mb(pid);
  return mb;
}

bool Population::inside(double q, double margin) const {
  const double boundaries[] = {pct(hits), 100.0 - pct(sims)};
  for (double b : boundaries)
    if (b > 0.0 && b < 100.0 && std::fabs(b - q) < margin) return false;
  return true;
}

namespace {

struct Active {
  std::uint64_t id = 0;  ///< flow number, the request id of its spans
  Flow flow;
  std::size_t pos = 0;
  bool open = false;
  Clock::time_point due;
  Clock::time_point sent;
  std::future<serve::Response> future;
};

void send(Active& a, const Submit& submit) {
  a.sent = Clock::now();
  a.future = submit(a.flow[a.pos].request);
}

}  // namespace

LoadStats drive_load(const Submit& submit, const std::string& span_name,
                     const std::function<Flow()>& next_flow,
                     double rate, double open_s, int clients,
                     double closed_s, int cycles,
                     const CycleHook& after_cycle, std::vector<Record>& out) {
  using namespace std::chrono;
  constexpr auto kPoll = microseconds(100);
  LoadStats stats;
  std::vector<Active> active;
  std::vector<double> outstanding;  // sampled at each open-loop arrival
  bool in_closed_window = false;
  std::uint64_t flows = 0;
  std::uint64_t window_ok = 0;
  // Due times are laid on one open-loop time line: the cycle's open phase
  // starts at `start`, `open_before` seconds into that line.
  Clock::time_point start;
  double open_before = 0.0;

  // Harvests every answered request; chains a flow's next request.
  auto harvest = [&] {
    for (std::size_t i = 0; i < active.size();) {
      Active& a = active[i];
      if (a.future.wait_for(seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const auto now = Clock::now();
      serve::Response r = a.future.get();
      Record rec;
      rec.job = a.flow[a.pos];
      rec.open = a.open;
      rec.at_s = open_before + ms_between(start, a.due) / 1000.0;
      rec.latency_ms = ms_between(a.due, now);
      rec.served_ms = ms_between(a.sent, now);
      rec.status = r.status;
      rec.exit_code = r.exit_code;
      rec.cached = r.cached;
      rec.output_digest = digest(r.output);
      if (!rec.job.archive.empty()) rec.output = std::move(r.output);
      if (Tracer::instance().enabled())
        Tracer::instance().record(span_name, a.sent, now, a.id);
      const bool ok = rec.status == serve::Status::kOk && rec.exit_code == 0;
      if (a.open) ++stats.completed;
      if (!a.open && in_closed_window && ok) ++window_ok;
      out.push_back(std::move(rec));
      if (++a.pos < a.flow.size()) {
        a.due = now;
        if (a.open) ++stats.offered;
        send(a, submit);
        ++i;
      } else {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  };
  auto wait_a_little = [&](Clock::time_point until) {
    const auto limit = std::min(Clock::now() + kPoll, until);
    if (!active.empty())
      active.front().future.wait_until(limit);
    else
      std::this_thread::sleep_until(limit);
  };

  const std::size_t n_open =
      static_cast<std::size_t>(rate * open_s / cycles + 0.5);
  const auto closed_len =
      duration_cast<Clock::duration>(duration<double>(closed_s / cycles));
  auto due_of = [&](std::size_t i) {
    return start + duration_cast<Clock::duration>(
                       duration<double>(static_cast<double>(i) / rate));
  };
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::size_t first = out.size();

    // Open loop: flow i is due at start + i / rate, whatever the backlog.
    start = Clock::now();
    std::size_t next = 0;
    while (next < n_open || !active.empty()) {
      harvest();
      if (next < n_open && Clock::now() >= due_of(next)) {
        Active a;
        a.id = ++flows;
        a.flow = next_flow();
        a.open = true;
        a.due = due_of(next);
        stats.lag_ms.push_back(ms_between(a.due, Clock::now()));
        outstanding.push_back(static_cast<double>(active.size()));
        ++stats.offered;
        send(a, submit);
        active.push_back(std::move(a));
        ++next;
        continue;
      }
      wait_a_little(next < n_open ? due_of(next) : Clock::time_point::max());
    }
    open_before += static_cast<double>(n_open) / rate;

    // Closed loop: `clients` flows always active until the window closes.
    const auto closed_start = Clock::now();
    const auto closed_end = closed_start + closed_len;
    window_ok = 0;
    in_closed_window = true;
    while (Clock::now() < closed_end) {
      harvest();
      while (static_cast<int>(active.size()) < clients &&
             Clock::now() < closed_end) {
        Active a;
        a.id = ++flows;
        a.flow = next_flow();
        a.due = Clock::now();
        send(a, submit);
        active.push_back(std::move(a));
      }
      wait_a_little(closed_end);
    }
    in_closed_window = false;
    stats.closed_rps.push_back(
        static_cast<double>(window_ok) /
        (ms_between(closed_start, Clock::now()) / 1000.0));
    // Drain: started flows finish their current request (it is still
    // recorded), but no new request starts.
    for (Active& a : active) a.flow.resize(a.pos + 1);
    while (!active.empty()) {
      harvest();
      wait_a_little(Clock::time_point::max());
    }

    if (after_cycle) after_cycle(out, first);
    for (std::size_t i = first; i < out.size(); ++i) {
      out[i].job.request = serve::Request{};
      out[i].output = std::string();
    }
  }

  if (outstanding.size() >= 4) {
    const std::size_t half = outstanding.size() / 2;
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < half; ++i) first += outstanding[i];
    for (std::size_t i = half; i < outstanding.size(); ++i)
      second += outstanding[i];
    first /= static_cast<double>(half);
    second /= static_cast<double>(outstanding.size() - half);
    stats.backlog_grew = second > 2.0 * first + 2.0;
  }
  return stats;
}

ClassStats populations(const std::vector<Record>& records) {
  ClassStats s;
  for (const Record& r : records) {
    Population& p = r.job.kind == Kind::kRead ? s.read : s.cold;
    ++p.n;
    if (r.cached) ++p.hits;
    if (r.job.simulates) ++p.sims;
    if (r.job.scattered) ++p.scattered;
  }
  return s;
}

}  // namespace scalbench
