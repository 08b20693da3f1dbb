#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "arch/accelerator.hpp"
#include "core/manager.hpp"

namespace perfbench {

void Outcome::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 20) {
    failures.push_back(message);
  }
}

void Outcome::add_layer(const std::string& name, double value) {
  const auto& catalog = per_layer_catalog();
  const bool known =
      std::any_of(catalog.begin(), catalog.end(),
                  [&](const CatalogEntry& e) { return e.name == name; });
  if (!known) {
    throw std::logic_error("per-layer metric not in the catalog: " + name);
  }
  per_layer[name] += value;
}

const std::vector<CatalogEntry>& end_to_end_catalog() {
  static const std::vector<CatalogEntry> catalog = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"heavy_p50_ms", "ms"},
      {"cpu_s", "s"},
      {"offchip_mb", "MB"},
      {"model_latency_mcycles", "Mcycles"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

std::vector<Metric> end_to_end_metrics(
    const std::map<std::string, double>& values) {
  std::vector<Metric> metrics;
  for (const CatalogEntry& entry : end_to_end_catalog()) {
    const auto it = values.find(entry.name);
    if (it == values.end()) {
      throw std::logic_error("end-to-end metric not set: " + entry.name);
    }
    metrics.push_back({entry.name, it->second, entry.unit});
  }
  return metrics;
}

const std::vector<CatalogEntry>& per_layer_catalog() {
  static const std::vector<CatalogEntry> catalog = [] {
    std::vector<CatalogEntry> c = {
        {"model.parse_ms", "ms"},
        {"core.plan_ms", "ms"},
        {"core.eval_cache.hits", "count"},
        {"core.eval_cache.misses", "count"},
        {"core.eval_cache.hit_rate", "share"},
        {"core.interlayer_links", "count"},
        {"validate.ms", "ms"},
        {"validate.diagnostics", "count"},
        {"codegen.lower_ms", "ms"},
        {"codegen.commands", "count"},
        {"codegen.interpret_ms", "ms"},
        {"engine.schedule_ms", "ms"},
        {"hw.dram_busy_mcycles", "Mcycles"},
        {"hw.pe_busy_mcycles", "Mcycles"},
        {"hw.exposed_mcycles", "Mcycles"},
        {"analysis.stream_ms", "ms"},
        {"analysis.depgraph_ms", "ms"},
        {"analysis.depgraph_nodes", "count"},
        {"analysis.depgraph_edges", "count"},
        {"analysis.races_ms", "ms"},
        {"analysis.critical_path_ms", "ms"},
        {"analysis.optimize_ms", "ms"},
        {"analysis.opt.layers_reordered", "count"},
        {"analysis.opt.commands_moved", "count"},
        {"analysis.opt.barriers_elided", "count"},
        {"analysis.opt.transfers_coalesced", "count"},
        {"analysis.critical_path_mcycles", "Mcycles"},
        {"analysis.stall_kcycles", "kcycles"},
    };
    static const char* const kVerbs[] = {"plan_warm", "plan_cold", "validate",
                                         "list",      "stats",     "upload",
                                         "evict",     "analyze",   "dse"};
    for (const char* verb : kVerbs) {
      c.push_back({std::string("serve.") + verb + "_p50_ms", "ms"});
      c.push_back({std::string("serve.") + verb + "_p99_ms", "ms"});
    }
    c.insert(c.end(), {
                          {"serve.cheap_p50_ms", "ms"},
                          {"serve.cheap_p99_ms", "ms"},
                          {"serve.heavy_p50_ms", "ms"},
                          {"serve.handle_ms", "ms"},
                          {"serve.gen_late_ms", "ms"},
                          {"serve.coalesced", "count"},
                          {"serve.errors", "count"},
                          {"dse.sweep_ms", "ms"},
                          {"error_rate", "share"},
                          {"bench.host_probe_ms", "ms"},
                          {"trace.spans", "count"},
                      });
    return c;
  }();
  return catalog;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // carry the high-water of the parent that exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

rainbow::core::ExecutionPlan plan_for(
    const rainbow::model::Network& net, rainbow::count_t glb_kib,
    rainbow::core::Objective objective, bool interlayer,
    std::shared_ptr<rainbow::core::EvalCache> cache) {
  using namespace rainbow;
  core::ManagerOptions options;
  options.analyzer.eval_cache = std::move(cache);
  options.interlayer_reuse = interlayer;
  const core::MemoryManager manager(arch::paper_spec(util::kib(glb_kib)),
                                    options);
  return manager.plan(net, objective);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
