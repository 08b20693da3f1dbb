// Shared plumbing of the benchmark binary: run options, the outcome a
// workload fills in (attempted/failed ops, metrics, per-op digests), the
// per-layer metric catalog, the one planning call every workload makes,
// and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/plan.hpp"
#include "model/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the result file, the trace and the serve socket.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  /// serve only: the schedule's send rate in ops/s; 0 sends it closed-loop
  /// as fast as the daemon answers, which measures the mix's capacity.
  double rate = -1.0;  ///< negative: the benchmark's fixed rate
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports.  `fail` counts an incorrect or failed
/// operation; any failure makes the run's exit code non-zero.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages, for stderr
  std::vector<Metric> end_to_end;
  /// Per-layer values by catalog name; names missing here report 0.
  std::map<std::string, double> per_layer;
  /// FNV-1a digest of every op's output, in schedule order (determinism
  /// self-check: two runs of one seed must agree exactly).
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  /// Modeled quantities that must repeat exactly for a seed.
  std::map<std::string, double> modeled;
  /// Passes over the workload's fixed op set completed in the window.
  std::size_t passes = 0;
  /// Span time (ms, by span name) of work run once per run beside the
  /// passes; the per-layer timings count it once instead of per pass.
  std::map<std::string, double> once_ms;

  void fail(const std::string& message);
  void check(bool ok, const std::string& message) {
    if (!ok) {
      fail(message);
    }
  }
  void add_layer(const std::string& name, double value);
};

/// Per-layer metric names and units, in report order; BENCHMARK.json's
/// `per_layer` list mirrors it.  Every traced run prints all of them.
struct CatalogEntry {
  std::string name;
  std::string unit;
};
[[nodiscard]] const std::vector<CatalogEntry>& per_layer_catalog();

/// End-to-end metric names and units, in report order.
[[nodiscard]] const std::vector<CatalogEntry>& end_to_end_catalog();

/// The end-to-end metrics in catalog order; throws if one is missing.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    const std::map<std::string, double>& values);

/// Linear-interpolated percentile (p in [0,1]) of unsorted samples; 0 for
/// an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

[[nodiscard]] double ms_since(Clock::time_point start);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// CPU seconds consumed so far by the calling thread / the whole process.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();
/// Process peak resident set size in MB (getrusage high-water).
[[nodiscard]] double peak_rss_mb();

/// Plans `net` on the paper's accelerator with a `glb_kib` kB GLB, as
/// `rainbow_plan` and the daemon do; `cache` (may be null) is the plan's
/// EvalCache.
[[nodiscard]] rainbow::core::ExecutionPlan plan_for(
    const rainbow::model::Network& net, rainbow::count_t glb_kib,
    rainbow::core::Objective objective, bool interlayer,
    std::shared_ptr<rainbow::core::EvalCache> cache = nullptr);

/// Independent sub-seed `index` of the run seed (splitmix64).
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index);

/// The steady time of one deterministic piece of work timed several times
/// in a run: the fastest sample.  On the shared 4-vCPU test VM, code ran up
/// to 1.7x slower for stretches of 0.1 s to whole minutes, and how much of
/// a run fell in such stretches changed from run to run.  A median tracks
/// that share (single-threaded plan latency read 1.9-3.1 ms in four runs);
/// the fastest sample lies below the slow stretches (1.65-1.70 ms).
[[nodiscard]] inline double fastest(const std::vector<double>& samples) {
  return percentile(samples, 0.0);
}

/// Wall seconds of every run of a workload's set-up; setup_s is the
/// fastest.  A burst of repeats at the start alone still fell wholly
/// inside a slow stretch in 3 of 7 runs, so the workloads also repeat
/// their set-up between or after the timed passes.
class SetupTimes {
 public:
  /// Runs `setup` once and records its wall time.
  template <typename Fn>
  void time(Fn&& setup) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds_.push_back(ms_since(start) / 1000.0);
  }

  /// Runs `setup` at least 25 times and for at least a second.
  template <typename Fn>
  void burst(Fn&& setup) {
    const Clock::time_point first = Clock::now();
    for (int i = 0; i < 25 || ms_since(first) < 1000.0; ++i) {
      time(setup);
    }
  }

  [[nodiscard]] double fastest_s() const { return fastest(seconds_); }

 private:
  std::vector<double> seconds_;
};

/// Whole passes over a workload's op set fill the window: the first always
/// runs, and another only when the mean pass so far would end inside it.
[[nodiscard]] inline bool another_pass(Clock::time_point start,
                                       std::size_t passes, int seconds) {
  if (passes == 0) {
    return true;
  }
  const double elapsed_ms = ms_since(start);
  return elapsed_ms + elapsed_ms / static_cast<double>(passes) <=
         seconds * 1000.0;
}

}  // namespace perfbench
