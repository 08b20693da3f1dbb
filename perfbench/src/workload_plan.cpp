// plan: cold planning requests, single-threaded.  A request is one network
// (handed over as model text) x GLB size x objective x inter-layer reuse;
// it parses the text, plans with a fresh EvalCache, validates the plan and
// serializes it.  Nothing is lowered, so codegen/analysis changes must
// leave every number here unchanged.
#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/plan_io.hpp"
#include "model/parser.hpp"
#include "model/random.hpp"
#include "model/zoo/zoo.hpp"
#include "util/hash.hpp"
#include "validate/plan_validator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rainbow;

constexpr std::array<count_t, 5> kGlbKib = {64, 128, 256, 512, 1024};
constexpr std::size_t kRandomNetworks = 6;

struct PlanRequest {
  std::size_t network = 0;
  count_t glb_kib = 64;
  core::Objective objective = core::Objective::kAccesses;
  bool interlayer = false;
};

struct PlanInputs {
  std::vector<std::string> texts;  ///< one serialized network each
  std::size_t zoo_networks = 0;    ///< texts[0, zoo_networks) are the zoo
  std::vector<PlanRequest> requests;
};

PlanInputs make_inputs(std::uint64_t seed) {
  PlanInputs inputs;
  for (const std::string& name : model::zoo::model_names()) {
    inputs.texts.push_back(model::serialize_network(model::zoo::by_name(name)));
  }
  inputs.zoo_networks = inputs.texts.size();
  // Fixed lengths, seeded layer kinds and widths: the shapes vary with
  // the seed, the amount of work much less.
  for (std::size_t i = 0; i < kRandomNetworks; ++i) {
    model::RandomNetworkOptions shape;
    shape.min_layers = shape.max_layers = static_cast<int>(8 + 4 * i);
    shape.max_channels = 256;
    inputs.texts.push_back(model::serialize_network(
        model::random_network(sub_seed(seed, i), shape)));
  }
  for (std::size_t n = 0; n < inputs.texts.size(); ++n) {
    for (const count_t kib : kGlbKib) {
      for (const core::Objective objective :
           {core::Objective::kAccesses, core::Objective::kLatency}) {
        for (const bool inter : {false, true}) {
          inputs.requests.push_back({n, kib, objective, inter});
        }
      }
    }
  }
  std::mt19937_64 rng(sub_seed(seed, 1000));
  std::shuffle(inputs.requests.begin(), inputs.requests.end(), rng);
  return inputs;
}

struct Served {
  std::string text;
  double access_mb = 0.0;
  double latency_cycles = 0.0;
  std::size_t links = 0;
  std::size_t diagnostics = 0;
  /// Diagnostics other than V012, which docs/validation.md documents as
  /// tripped legitimately by implicit pooling between trunk layers.
  std::string unexpected;
  core::EvalCacheStats cache;
};

/// One cold request, from model text to serialized plan.
Served serve_request(const std::string& network_text, const PlanRequest& req,
                     Tracer& tracer) {
  const model::Network net = [&] {
    auto span = tracer.scope("model.parse");
    return model::parse_network(network_text);
  }();
  const auto cache = std::make_shared<core::EvalCache>();
  const core::ExecutionPlan plan = [&] {
    auto span = tracer.scope("core.plan");
    return plan_for(net, req.glb_kib, req.objective, req.interlayer, cache);
  }();
  const validate::ValidationReport report = [&] {
    auto span = tracer.scope("validate.validate");
    const validate::PlanValidator validator{validate::ValidatorOptions{}};
    return validator.validate(plan, net);
  }();
  Served served;
  {
    auto span = tracer.scope("core.serialize_plan");
    served.text = core::serialize_plan(plan);
  }
  served.access_mb = plan.total_access_mb();
  served.latency_cycles = plan.total_latency_cycles();
  served.links = plan.interlayer_links();
  served.diagnostics = report.diagnostics().size();
  for (const validate::Diagnostic& d : report.diagnostics()) {
    if (d.code != validate::Code::kInterlayerWindow) {
      served.unexpected += " " + d.message();
    }
  }
  served.cache = cache->stats();
  if (!plan.feasible()) {
    throw std::runtime_error("plan is infeasible");
  }
  return served;
}

std::string describe(const PlanRequest& req) {
  return "network " + std::to_string(req.network) + " @ " +
         std::to_string(req.glb_kib) + " kB " +
         std::string(core::to_string(req.objective)) +
         (req.interlayer ? "+inter" : "");
}

}  // namespace

Outcome run_plan(const Options& options, Tracer& tracer) {
  Outcome out;
  Tracer quiet(false);
  // Set-up: build and serialize the networks, parse each once, and warm
  // the allocator and code with one small request per network.  It runs
  // again after every pass, untimed by the passes.
  const auto set_up = [&] {
    PlanInputs made = make_inputs(options.seed);
    for (std::size_t n = 0; n < made.texts.size(); ++n) {
      static_cast<void>(model::parse_network(made.texts[n]));
      static_cast<void>(serve_request(made.texts[n], {n, 1024}, quiet));
    }
    return made;
  };
  SetupTimes setup;
  setup.burst(set_up);
  const PlanInputs inputs = set_up();
  for (std::size_t n = 0; n < inputs.texts.size(); ++n) {
    ++out.attempted;
    out.check(model::serialize_network(model::parse_network(inputs.texts[n])) ==
                  inputs.texts[n],
              "network " + std::to_string(n) + ": model text does not round-trip");
  }

  // Latency and CPU samples per request, one per pass.
  std::vector<std::vector<double>> samples_ms(inputs.requests.size());
  std::vector<std::vector<double>> samples_cpu_s(inputs.requests.size());
  std::vector<std::uint64_t> first_digests;
  // Modeled totals: over the zoo requests (the same on every seed, so the
  // end-to-end numbers compare across seeds) and over all requests.
  double zoo_offchip_mb = 0.0;
  double zoo_latency_cycles = 0.0;
  double offchip_mb = 0.0;
  double latency_cycles = 0.0;
  const Clock::time_point start = Clock::now();
  while (another_pass(start, out.passes, options.seconds)) {
    const bool first = out.passes == 0;
    for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
      const PlanRequest& req = inputs.requests[i];
      ++out.attempted;
      auto root = tracer.scope("bench.plan_request", i + 1);
      const double cpu0 = thread_cpu_s();
      const Clock::time_point t0 = Clock::now();
      try {
        const Served served =
            serve_request(inputs.texts[req.network], req, tracer);
        samples_ms[i].push_back(ms_since(t0));
        samples_cpu_s[i].push_back(thread_cpu_s() - cpu0);
        const std::uint64_t digest = util::fnv1a(served.text);
        if (first) {
          first_digests.push_back(digest);
          out.digests.push_back({"plan/" + describe(req), digest});
          offchip_mb += served.access_mb;
          latency_cycles += served.latency_cycles;
          if (req.network < inputs.zoo_networks) {
            zoo_offchip_mb += served.access_mb;
            zoo_latency_cycles += served.latency_cycles;
          }
          out.add_layer("core.eval_cache.hits",
                        static_cast<double>(served.cache.hits));
          out.add_layer("core.eval_cache.misses",
                        static_cast<double>(served.cache.misses));
          out.add_layer("core.interlayer_links",
                        static_cast<double>(served.links));
          out.add_layer("validate.diagnostics",
                        static_cast<double>(served.diagnostics));
        } else {
          out.check(digest == first_digests[i],
                    describe(req) + ": plan differs between passes");
        }
        out.check(served.unexpected.empty(),
                  describe(req) + ": validator reported" + served.unexpected);
      } catch (const std::exception& e) {
        out.fail(describe(req) + ": " + e.what());
        if (first) {
          first_digests.push_back(0);
        }
      }
    }
    ++out.passes;
    setup.time(set_up);
  }

  const double lookups = out.per_layer["core.eval_cache.hits"] +
                         out.per_layer["core.eval_cache.misses"];
  out.add_layer("core.eval_cache.hit_rate",
                lookups > 0 ? out.per_layer["core.eval_cache.hits"] / lookups
                            : 0.0);
  out.modeled["offchip_mb"] = zoo_offchip_mb;
  out.modeled["model_latency_mcycles"] = zoo_latency_cycles / 1e6;
  out.modeled["all_offchip_mb"] = offchip_mb;
  out.modeled["all_model_latency_mcycles"] = latency_cycles / 1e6;
  // A request's latency and CPU are its fastest pass, below the host's
  // slow stretches.  Percentiles are over the zoo
  // requests, the same set on every seed; the seeded random networks count
  // in cpu_s (one pass: the sum over all requests) and in the checks.
  std::vector<double> latency_ms;
  std::vector<double> heavy_ms;
  double pass_cpu_s = 0.0;
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    if (samples_ms[i].empty()) {
      continue;
    }
    pass_cpu_s += fastest(samples_cpu_s[i]);
    if (inputs.requests[i].network >= inputs.zoo_networks) {
      continue;
    }
    latency_ms.push_back(fastest(samples_ms[i]));

    if (inputs.requests[i].interlayer) {
      heavy_ms.push_back(latency_ms.back());
    }
  }
  out.end_to_end = end_to_end_metrics({
      {"setup_s", setup.fastest_s()},
      {"p50_ms", percentile(latency_ms, 0.50)},
      {"p99_ms", percentile(latency_ms, 0.99)},
      {"heavy_p50_ms", percentile(heavy_ms, 0.50)},
      {"cpu_s", pass_cpu_s},
      {"offchip_mb", zoo_offchip_mb},
      {"model_latency_mcycles", zoo_latency_cycles / 1e6},
      {"peak_rss_mb", peak_rss_mb()},
  });
  return out;
}

}  // namespace perfbench
