// rainbow_perfbench: the repository benchmark (README.md).
//
//   rainbow_perfbench --workload plan|certify|serve --seed N --seconds S
//                     --trace 0|1 [--out DIR] [--git-sha SHA]
//                     [--rate OPS_PER_S]
//
// --rate changes the serve schedule's send rate (0: closed loop, which
// prints the mix's capacity); the benchmark itself runs at its fixed rate.
// Prints a provenance line, a per-module self-time table (traced runs),
// and as the last stdout line one JSON object with `correct`, `attempted`,
// `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
// traced).  Writes DIR/perfbench-<workload>-seed<N>-trace<T>.json with
// every number next to its provenance, and DIR/trace-<workload>-seed<N>.json
// (Chrome trace events) when traced.  Exits 1 when any op failed or
// produced a wrong output, 2 on a usage error.
#include <sys/utsname.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "rainbow_perfbench: " << problem << "\n"
            << "usage: rainbow_perfbench --workload plan|certify|serve "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--git-sha SHA] "
               "[--rate OPS_PER_S]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else if (flag == "--rate") {
        options.rate = std::stod(value);
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload != "plan" && options.workload != "certify" &&
      options.workload != "serve") {
    usage("--workload must be plan, certify or serve");
  }
  if (options.seconds < 1) {
    usage("--seconds must be at least 1");
  }
  return options;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip decimal form: every digit as measured.
std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string provenance_json(const Options& options) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
  utsname host{};
  uname(&host);
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"git_sha\": " << json_string(options.git_sha)
     << ", \"date\": " << json_string(date)
     << ", \"kernel\": " << json_string(std::string(host.sysname) + " " +
                                        host.release + " " + host.machine)
     << ", \"workload\": " << json_string(options.workload)
     << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return os.str();
}

/// Per-layer timing metrics and the span each one sums.
struct TimedLayer {
  const char* metric;
  const char* span;
};
constexpr TimedLayer kTimedLayers[] = {
    {"model.parse_ms", "model.parse"},
    {"core.plan_ms", "core.plan"},
    {"validate.ms", "validate.validate"},
    {"codegen.lower_ms", "codegen.lower"},
    {"codegen.interpret_ms", "codegen.interpret"},
    {"engine.schedule_ms", "engine.execute_plan"},
    {"analysis.stream_ms", "analysis.stream"},
    {"analysis.depgraph_ms", "analysis.depgraph"},
    {"analysis.races_ms", "analysis.races"},
    {"analysis.critical_path_ms", "analysis.critical_path"},
    {"analysis.optimize_ms", "analysis.optimize"},
    {"serve.handle_ms", "serve.handle"},
};

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string number_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    out += (out.size() == 1 ? "" : ", ") + json_string(name) + ": " +
           json_number(value);
  }
  return out + "}";
}

void write_result_file(const std::string& path, const std::string& provenance,
                       const Outcome& out, const std::vector<Metric>& layers,
                       const std::map<std::string, double>& self_ms) {
  std::ostringstream os;
  os << "{\n\"provenance\": " << provenance << ",\n\"passes\": " << out.passes
     << ",\n\"attempted\": " << out.attempted << ",\n\"failed\": " << out.failed
     << ",\n\"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(out.failures[i]);
  }
  os << "],\n\"end_to_end\": " << metrics_object(out.end_to_end)
     << ",\n\"per_layer\": " << metrics_object(layers)
     << ",\n\"self_time_ms\": " << number_map(self_ms)
     << ",\n\"modeled\": " << number_map(out.modeled) << ",\n\"digests\": {";
  for (std::size_t i = 0; i < out.digests.size(); ++i) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(out.digests[i].second));
    os << (i == 0 ? "\n" : ",\n") << json_string(out.digests[i].first) << ": "
       << json_string(hex);
  }
  os << "}\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  const std::string text = os.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("error writing " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    Tracer tracer(options.trace);
    Outcome out = options.workload == "plan"      ? run_plan(options, tracer)
                  : options.workload == "certify" ? run_certify(options, tracer)
                                                  : run_serve(options, tracer);
    const double passes = static_cast<double>(std::max<std::size_t>(1, out.passes));
    for (const TimedLayer& t : kTimedLayers) {
      const auto once = out.once_ms.find(t.span);
      const double once_ms = once == out.once_ms.end() ? 0.0 : once->second;
      out.add_layer(t.metric,
                    (tracer.total_ms(t.span) - once_ms) / passes + once_ms);
    }
    out.add_layer("trace.spans", static_cast<double>(tracer.spans().size()));
    out.add_layer("error_rate", static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted));
    std::vector<Metric> layers;
    for (const CatalogEntry& entry : per_layer_catalog()) {
      const auto it = out.per_layer.find(entry.name);
      layers.push_back(
          {entry.name, it == out.per_layer.end() ? 0.0 : it->second, entry.unit});
    }
    const std::map<std::string, double> self_ms = tracer.self_ms_by_module();

    const std::string provenance = provenance_json(options);
    const std::string stem = options.out_dir + "/" + "perfbench-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed);
    write_result_file(stem + "-trace" + (options.trace ? "1" : "0") + ".json",
                      provenance, out, layers, self_ms);
    std::cout << "# provenance " << provenance << "\n";
    if (options.trace) {
      const std::string trace_path = options.out_dir + "/trace-" +
                                     options.workload + "-seed" +
                                     std::to_string(options.seed) + ".json";
      tracer.write_chrome_json(trace_path, provenance);
      double total = 0.0;
      for (const auto& [module, ms] : self_ms) {
        total += ms;
      }
      std::cout << "# self time by module (" << tracer.spans().size()
                << " spans, " << out.passes << " pass(es); trace "
                << trace_path << ")\n";
      for (const auto& [module, ms] : self_ms) {
        char line[128];
        std::snprintf(line, sizeof(line), "#   %-10s %12.3f ms  %5.1f %%\n",
                      module.c_str(), ms, total > 0 ? 100.0 * ms / total : 0.0);
        std::cout << line;
      }
    }
    for (const std::string& failure : out.failures) {
      std::cerr << "rainbow_perfbench: FAILED " << failure << "\n";
    }
    std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": "
              << metrics_object(options.trace ? layers : out.end_to_end)
              << "}" << std::endl;
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rainbow_perfbench: " << e.what() << "\n";
    return 1;
  }
}
