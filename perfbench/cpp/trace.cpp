#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>

namespace scalbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double ms_of(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - kEpoch).count();
}

double now_ms() { return ms_of(std::chrono::steady_clock::now()); }

thread_local std::vector<int> t_stack;

/// Length of the union of [lo, hi) intervals clipped to [from, to).
double covered(std::vector<std::pair<double, double>> iv, double from,
               double to) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, from);
    hi = std::min(hi, to);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::map<int, std::vector<std::pair<double, double>>> children_of(
    const std::vector<SpanRecord>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ms, s.end_ms});
  return kids;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const std::string& name, std::uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  s.start_ms = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  t_stack.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  const double t = now_ms();
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = t;
}

void Tracer::record(const std::string& name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.start_ms = ms_of(start);
  s.end_ms = ms_of(end);
  s.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  os << std::setprecision(12);
  for (const SpanRecord& s : spans())
    os << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
       << ",\"end_ms\":" << s.end_ms << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << "}\n";
}

Span::Span(const std::string& name, std::uint64_t request) {
  if (Tracer::instance().enabled())
    id_ = Tracer::instance().begin(name, request);
}

Span::~Span() {
  if (id_ >= 0) Tracer::instance().end(id_);
}

std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans) {
  const auto kids = children_of(spans);
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    double own = s.end_ms - s.start_ms;
    if (auto it = kids.find(s.id); it != kids.end())
      own -= covered(it->second, s.start_ms, s.end_ms);
    self[s.name.substr(0, s.name.find('.'))] += own;
  }
  return self;
}

double uncovered_pct(const std::vector<SpanRecord>& spans,
                     const std::string& root) {
  const auto kids = children_of(spans);
  double wall = 0.0, bare = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent != -1 || s.name != root) continue;
    const double dur = s.end_ms - s.start_ms;
    wall += dur;
    bare += dur;
    if (auto it = kids.find(s.id); it != kids.end())
      bare -= covered(it->second, s.start_ms, s.end_ms);
  }
  return wall > 0.0 ? 100.0 * bare / wall : 0.0;
}

}  // namespace scalbench
