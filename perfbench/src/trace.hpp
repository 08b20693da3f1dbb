// Span recorder for the traced run.  The benchmark wraps every call it
// makes into a module in a Scope named "<module>.<call>" (e.g. core.plan,
// analysis.depgraph); each op of a workload is a root span named
// "bench.<op>" whose request id the nested spans inherit.  Serve ops are
// asynchronous spans from their due send time to their response.
//
// Spans stay in memory and are written at the end as Chrome trace-event
// JSON (loads in Perfetto or chrome://tracing).  When disabled, a Scope
// costs one branch.  A Tracer is used from one thread at a time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;  ///< "<module>.<call>"
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< enclosing span id, 0 for a root
  std::uint64_t request = 0;
  std::uint32_t lane = 0;    ///< Chrome tid: 0 = main, serve connection + 1
  bool async = false;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
  [[nodiscard]] std::string_view module() const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    std::size_t index_ = 0;
  };

  /// Opens a synchronous span that closes when the Scope dies.  A zero
  /// request inherits the enclosing span's request id.
  [[nodiscard]] Scope scope(std::string_view name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  /// Records a finished asynchronous span (serve ops overlap in flight).
  void record_async(std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request,
                    std::uint32_t lane);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;

  /// Per-module self time: each span's duration minus the part its child
  /// spans cover, summed by module.
  [[nodiscard]] std::map<std::string, double> self_ms_by_module() const;

  /// Writes Chrome trace-event JSON; `other_data` is a JSON object placed
  /// under "otherData" (provenance).
  void write_chrome_json(const std::string& path,
                         const std::string& other_data) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open synchronous spans
};

}  // namespace perfbench
