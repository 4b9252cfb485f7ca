// Spans of the traced run. They are recorded only here, around the calls
// the benchmark makes into each layer's public functions; the program
// itself is not instrumented. Spans stay in memory and are written out
// once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace scalbench {

struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "machine.run_full"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int id = 0;
  int parent = -1;  ///< enclosing span on the same thread, -1 for a root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int begin(const std::string& name, std::uint64_t request);
  void end(int id);
  /// A root span whose start and end were seen on different events (a
  /// request sent now and answered later).
  void record(const std::string& name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end,
              std::uint64_t request);

  std::vector<SpanRecord> spans() const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

/// Self time per layer (span time minus the part its children cover),
/// summed over every span of the layer, in ms.
std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans);

/// Share (%) of the wall time of the root spans named `root` that no
/// child span covers.
double uncovered_pct(const std::vector<SpanRecord>& spans,
                     const std::string& root);

}  // namespace scalbench
