// serve: an in-process rainbowd (PlanningService + Server) on a unix socket
// with the zoo uploaded and warm.  The benchmark's main thread is the one
// generator: it sends the schedule over nproc connections and reads the
// responses with poll(), so the server's planning workers (nproc - 2) and
// event loop plus the one client thread equal nproc.
//
// The window is ten segments.  Each runs an open loop at a fixed rate for
// two thirds of its share of the window, then a serial loop of a third as
// many ops, sent one at a time.  Open-loop ops are timed from their due
// send time, so a stall also charges the ops queued behind it; these
// latencies are per-layer metrics.  The serial loop records the daemon
// CPU each op used (process CPU minus the generator thread), and the
// end-to-end timings come from it.  On the shared 4-vCPU test
// VM the open-loop latencies moved with the host's scheduling of the
// daemon's threads: with every CPU kept busy by idle-priority spinners,
// the cheap-verb median and p99 spread 0.22-0.28 and 0.48 in two sets of
// ten runs, and without the spinners 0.69 and 0.73 in five runs.
//
// The mix, per block of 200 ops: 144 warm plans (cache hits), 10 cold
// plans at a never-seen GLB size, 10 validate, 7 list, 7 stats, 15
// registry writes (upload of a seeded random network, evicted 90 ops
// later), and the heavy verbs: 4 analyze (MobileNet @ 256 kB, latency
// objective, 32 k commands) and 3 small dse sweeps.  The shares put each
// reported percentile inside one verb's distribution instead of on the
// edge between two: warm plans are three quarters of the cheap verbs, so
// the cheap median is a warm plan's, and cold plans are 5 %, so the cheap
// p99 is a cold plan's.
//
// The rate is about a quarter of the mix's capacity.  `--rate 0` sends the
// open loop's ops closed-loop and prints the capacity; on the 4-vCPU test
// VM (2 planning workers) nine such runs gave 2 900-4 400 ops/s, median
// about 3 700.  At half the capacity, one run in ten fell behind the
// schedule (cheap median 52 ms) when the host slowed; a quarter leaves
// the workers half idle even at half speed.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stream_analyzer.hpp"
#include "arch/accelerator.hpp"
#include "codegen/lower.hpp"
#include "core/manager.hpp"
#include "core/plan_io.hpp"
#include "dse/sweep.hpp"
#include "model/parser.hpp"
#include "model/random.hpp"
#include "model/zoo/zoo.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rainbow;

constexpr double kRatePerSecond = 900.0;
/// Segments of the window.  The host's speed changed from second to
/// second, so the serial loop is spread over the window and each
/// identical request samples many moments.
constexpr std::size_t kSegments = 10;
constexpr std::size_t kEvictAfterOps = 90;  ///< 100 ms at the fixed rate
constexpr count_t kAnalyzeGlbKib = 256;
constexpr const char* kAnalyzeModel = "mobilenet";
constexpr count_t kDseGlbKib[] = {64, 128, 256};

enum class Verb {
  kPlanWarm,
  kPlanCold,
  kValidate,
  kList,
  kStats,
  kUpload,
  kEvict,
  kAnalyze,
  kDse,
};
constexpr std::size_t kVerbCount = 9;
constexpr const char* kVerbNames[kVerbCount] = {
    "plan_warm", "plan_cold", "validate", "list", "stats",
    "upload",    "evict",     "analyze",  "dse"};

bool heavy(Verb verb) { return verb == Verb::kAnalyze || verb == Verb::kDse; }

/// Everything that determines a plan response body.
struct PlanKey {
  std::string model;
  count_t glb_kib = 64;
  core::Objective objective = core::Objective::kAccesses;
  bool interlayer = false;

  [[nodiscard]] std::string str() const {
    return model + "@" + std::to_string(glb_kib) + "/" +
           std::string(core::to_string(objective)) + (interlayer ? "+i" : "");
  }
};

struct Op {
  Verb verb = Verb::kList;
  std::size_t conn = 0;
  double due_ms = 0.0;        ///< offset from the segment's start
  std::ptrdiff_t after = -1;  ///< op that must have completed (evict)
  PlanKey key;                ///< plan ops; model name for others
  std::string payload;        ///< encoded request
  std::size_t expect_layers = 0;  ///< upload
  bool serial = false;  ///< sent alone by the serial loop
};

struct Reference {
  std::string text;
  double access_mb = 0.0;
  double latency_cycles = 0.0;
};

Reference reference_plan(const PlanKey& key,
                         const std::map<std::string, model::Network>& zoo) {
  const core::ExecutionPlan plan = plan_for(zoo.at(key.model), key.glb_kib,
                                            key.objective, key.interlayer);
  return {core::serialize_plan(plan), plan.total_access_mb(),
          plan.total_latency_cycles()};
}

serve::Request plan_request(const PlanKey& key) {
  serve::Request request;
  request.verb = "plan";
  request.headers["model"] = key.model;
  request.headers["glb_kb"] = std::to_string(key.glb_kib);
  request.headers["objective"] = std::string(core::to_string(key.objective));
  request.headers["interlayer"] = key.interlayer ? "1" : "0";
  return request;
}

serve::Request dse_request(const std::string& model) {
  serve::Request request;
  request.verb = "dse";
  request.headers["model"] = model;
  std::string glb_kb;
  for (const count_t kib : kDseGlbKib) {
    glb_kb += (glb_kb.empty() ? "" : ",") + std::to_string(kib);
  }
  request.headers["glb_kb"] = glb_kb;
  return request;
}

/// The accesses column of a dse response body, one value per point.
std::vector<std::string> dse_accesses(const std::string& body) {
  std::vector<std::string> out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    // Columns: glb_kb, width_bits, batch, objective, interlayer, accesses.
    std::istringstream fields(line);
    std::string field;
    for (int column = 0; column <= 5; ++column) {
      std::getline(fields, field, ',');
    }
    field.erase(0, std::min(field.find_first_not_of(' '), field.size()));
    out.push_back(field);
  }
  return out;
}

/// True when every diagnostic line is the V012 warning, which
/// docs/validation.md documents as tripped legitimately by implicit
/// pooling between trunk layers of inter-layer plans.
bool only_v012(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("[V012]", 0) != 0) {
      return false;
    }
  }
  return true;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect(" + path + "): " + message);
  }
  return fd;
}

/// A running daemon plus the benchmark's connections to it.
struct Daemon {
  std::unique_ptr<serve::PlanningService> service;
  std::unique_ptr<serve::Server> server;
  std::vector<int> fds;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void start(const std::string& socket_path, std::size_t workers,
             std::size_t connections) {
    service = std::make_unique<serve::PlanningService>();
    serve::ServerConfig config;
    config.unix_path = socket_path;
    config.threads = workers;
    server = std::make_unique<serve::Server>(*service, config);
    server->start();
    for (std::size_t c = 0; c < connections; ++c) {
      fds.push_back(connect_unix(socket_path));
    }
  }

  void stop() {
    for (const int fd : fds) {
      ::close(fd);
    }
    fds.clear();
    if (server) {
      server->stop();
      server.reset();
    }
    service.reset();
  }

  /// Sends `requests` pipelined, round-robin over the connections, and
  /// waits for every response (set-up only).  The daemon may run them in
  /// any order.
  void call_all(const std::vector<serve::Request>& requests) const {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      serve::write_frame(fds.at(i % fds.size()),
                         serve::encode_request(requests[i]));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::string payload;
      if (!serve::read_frame(fds.at(i % fds.size()), payload)) {
        throw std::runtime_error("daemon closed the connection");
      }
      const serve::Response response = serve::decode_response(payload);
      if (!response.ok) {
        throw std::runtime_error("set-up " + requests[i].verb +
                                 " failed: " + response.get("message"));
      }
    }
  }
};

struct ServeInputs {
  std::map<std::string, model::Network> zoo;
  std::vector<PlanKey> warm_keys;
  std::map<std::string, Reference> refs;  ///< by PlanKey::str()
  std::string analyze_body;
  std::size_t analyze_commands = 0;
  std::map<std::string, std::vector<std::string>> dse_refs;  ///< by model
  std::vector<Op> ops;  ///< segment after segment: open loop, then serial
};

/// Requests that put the zoo in the registry, then requests that warm its
/// caches; the same lists drive the socket set-up and the in-process
/// replay.
struct Warmup {
  std::vector<serve::Request> uploads;
  std::vector<serve::Request> warm;
};

Warmup warmup_requests(const ServeInputs& in) {
  Warmup w;
  for (const auto& [name, net] : in.zoo) {
    serve::Request upload;
    upload.verb = "upload";
    upload.headers["name"] = name;
    upload.body = model::serialize_network(net);
    w.uploads.push_back(std::move(upload));
  }
  for (const PlanKey& key : in.warm_keys) {
    w.warm.push_back(plan_request(key));
  }
  for (const auto& [name, net] : in.zoo) {
    w.warm.push_back(dse_request(name));
  }
  return w;
}

/// In-process reference plans for `keys`, computed on `threads` workers
/// before the daemon starts, so checking adds no work to the window.
void add_references(ServeInputs& in, const std::vector<PlanKey>& keys,
                    std::size_t threads) {
  std::vector<Reference> refs(keys.size());
  std::vector<std::size_t> indices(keys.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  util::parallel_for_each(
      indices, [&](std::size_t k) { refs[k] = reference_plan(keys[k], in.zoo); },
      threads);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    in.refs.emplace(keys[k].str(), std::move(refs[k]));
  }
}

/// The schedule: `segments` times `open_ops` ops due at `rate` ops/s from
/// the segment's start (rate 0 makes every due time 0, for closed-loop
/// capacity runs) followed by `serial_ops` ops sent one at a time.
ServeInputs make_inputs(std::uint64_t seed, std::size_t segments,
                        std::size_t open_ops, std::size_t serial_ops,
                        double rate, std::size_t conns) {
  ServeInputs in;
  std::vector<std::string> names;  // registry names are lower-case
  for (std::string name : model::zoo::model_names()) {
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    in.zoo.emplace(name, model::zoo::by_name(name));
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) {
    for (const count_t kib : {count_t{64}, count_t{256}}) {
      for (const core::Objective objective :
           {core::Objective::kAccesses, core::Objective::kLatency}) {
        for (const bool inter : {false, true}) {
          in.warm_keys.push_back({name, kib, objective, inter});
        }
      }
    }
  }
  add_references(in, in.warm_keys, conns);
  {
    const PlanKey key{kAnalyzeModel, kAnalyzeGlbKib,
                      core::Objective::kLatency, false};
    in.analyze_body = reference_plan(key, in.zoo).text;
    const model::Network& net = in.zoo.at(kAnalyzeModel);
    const core::ExecutionPlan plan = core::parse_plan(in.analyze_body, net);
    in.analyze_commands =
        analysis::analyze_lowering(codegen::lower(plan, net), plan, net)
            .commands;
  }
  for (const std::string& name : names) {
    dse::SweepConfig config;
    for (const count_t kib : kDseGlbKib) {
      config.glb_bytes.push_back(util::kib(kib));
    }
    std::vector<std::string> column;
    for (const dse::SweepPoint& p : dse::run_sweep(in.zoo.at(name), config, 1)) {
      column.push_back(std::to_string(p.accesses));
    }
    in.dse_refs.emplace(name, std::move(column));
  }

  // The schedule: blocks of 200 ops with exact per-kind counts, shuffled
  // per block.  Warm keys cycle through a seed-shuffled list whose length
  // divides the warm ops of a block pair, and cold keys are a fixed
  // sequence, so every seed plans the same multiset of keys and the
  // modeled totals do not depend on the seed.
  std::mt19937_64 rng(sub_seed(seed, 3000));
  std::vector<PlanKey> warm_order = in.warm_keys;
  std::shuffle(warm_order.begin(), warm_order.end(), rng);
  std::vector<std::string> model_order = names;
  std::shuffle(model_order.begin(), model_order.end(), rng);
  enum class Kind { kWarm, kCold, kValidate, kList, kStats, kRegistry,
                    kAnalyze, kDse };
  const std::vector<std::pair<Kind, std::size_t>> block_mix = {
      {Kind::kWarm, 144}, {Kind::kCold, 10},     {Kind::kValidate, 10},
      {Kind::kList, 7},   {Kind::kStats, 7},     {Kind::kRegistry, 15},
      {Kind::kAnalyze, 4}, {Kind::kDse, 3}};
  const std::size_t segment_ops = open_ops + serial_ops;
  const std::size_t total = segments * segment_ops;
  const auto cold_key = [&](std::size_t k) {
    return PlanKey{names[k % names.size()], 300 + k,
                   (k / names.size()) % 2 == 0 ? core::Objective::kAccesses
                                               : core::Objective::kLatency,
                   (k / names.size() / 2) % 2 == 1};
  };

  std::size_t warm_i = 0, cold_i = 0, validate_i = 0, dse_i = 0, upload_i = 0;
  std::deque<std::size_t> resident;  ///< uploaded, not yet evicted (op index)
  std::vector<Kind> kinds;
  while (in.ops.size() < total) {
    if (kinds.empty()) {
      for (const auto& [kind, count] : block_mix) {
        kinds.insert(kinds.end(), count, kind);
      }
      std::shuffle(kinds.begin(), kinds.end(), rng);
    }
    const Kind kind = kinds.back();
    kinds.pop_back();
    Op op;
    const std::size_t index = in.ops.size();
    op.serial = index % segment_ops >= open_ops;
    op.due_ms = rate > 0.0 && !op.serial
                    ? 1000.0 * static_cast<double>(index % segment_ops) / rate
                    : 0.0;
    serve::Request request;
    switch (kind) {
      case Kind::kWarm:
        op.verb = Verb::kPlanWarm;
        op.key = warm_order[warm_i++ % warm_order.size()];
        request = plan_request(op.key);
        break;
      case Kind::kCold:
        op.verb = Verb::kPlanCold;
        op.key = cold_key(cold_i++);
        request = plan_request(op.key);
        break;
      case Kind::kValidate: {
        op.verb = Verb::kValidate;
        op.key = warm_order[validate_i++ % warm_order.size()];
        request.verb = "validate";
        request.headers["model"] = op.key.model;
        request.body = in.refs.at(op.key.str()).text;
        break;
      }
      case Kind::kList:
        op.verb = Verb::kList;
        request.verb = "list";
        break;
      case Kind::kStats:
        op.verb = Verb::kStats;
        request.verb = "stats";
        break;
      case Kind::kRegistry:
        if (!resident.empty() && resident.front() + kEvictAfterOps <= index) {
          op.verb = Verb::kEvict;
          op.after = static_cast<std::ptrdiff_t>(resident.front());
          op.key.model = in.ops[resident.front()].key.model;
          resident.pop_front();
          request.verb = "evict";
          request.headers["model"] = op.key.model;
        } else {
          op.verb = Verb::kUpload;
          model::RandomNetworkOptions small;
          small.max_layers = 12;
          small.input_size = 32;
          const model::Network net = model::random_network(
              sub_seed(seed, 10000 + upload_i), small);
          op.key.model = "u" + std::to_string(upload_i++);
          op.expect_layers = net.size();
          resident.push_back(index);
          request.verb = "upload";
          request.headers["name"] = op.key.model;
          request.body = model::serialize_network(net);
        }
        break;
      case Kind::kAnalyze:
        op.verb = Verb::kAnalyze;
        op.key.model = kAnalyzeModel;
        request.verb = "analyze";
        request.headers["model"] = kAnalyzeModel;
        request.body = in.analyze_body;
        break;
      case Kind::kDse:
        op.verb = Verb::kDse;
        op.key.model = model_order[dse_i++ % model_order.size()];
        request = dse_request(op.key.model);
        break;
    }
    // Connections by client role: the last carries the heavy verbs, the
    // one before it the cold plans, the rest share everything else.
    op.conn = heavy(op.verb)                ? conns - 1
              : op.verb == Verb::kPlanCold ? conns - 2
                                           : index % (conns - 2);
    op.payload = serve::encode_request(request);
    in.ops.push_back(std::move(op));
  }

  std::vector<PlanKey> cold_keys;
  for (std::size_t k = 0; k < cold_i; ++k) {
    cold_keys.push_back(cold_key(k));
  }
  add_references(in, cold_keys, conns);
  return in;
}

struct Completed {
  bool done = false;
  Clock::time_point due;  ///< due send time; the send time in closed loops
  Clock::time_point sent;
  Clock::time_point finished;
  double daemon_cpu_ms = 0.0;  ///< one op in flight only
  serve::Response response;
};

Clock::time_point due_at(Clock::time_point start, const Op& op) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(op.due_ms));
}

/// CPU seconds of every thread but the calling one: the daemon's.
double daemon_cpu_s() { return process_cpu_s() - thread_cpu_s(); }

/// Sends ops [first, last) of the schedule and collects their responses
/// into `results` until every op completed or a minute passed.  With
/// `window` 0 the loop is open: each op goes out at its due time after
/// `start`, and the minute counts from the last due time.  Otherwise it is
/// closed: the next op goes out as soon as fewer than `window` are in
/// flight.  With one op in flight, each op also records the daemon CPU it
/// used.
void drive(const ServeInputs& in, const Daemon& daemon, std::size_t first,
           std::size_t last, Clock::time_point start, std::size_t window,
           std::vector<Completed>& results, Tracer& tracer) {
  const std::size_t conns = daemon.fds.size();
  std::vector<std::string> inbox(conns);
  std::vector<std::deque<std::size_t>> inflight(conns);
  std::vector<pollfd> pfds(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    pfds[c] = {daemon.fds[c], POLLIN, 0};
  }
  const Clock::time_point deadline =
      std::max(Clock::now(), due_at(start, in.ops[last - 1])) +
      std::chrono::seconds(60);
  const bool serial = window == 1;
  std::size_t next = first;
  std::size_t outstanding = 0;
  while ((next < last || outstanding > 0) && Clock::now() < deadline) {
    while (next < last) {
      const Op& op = in.ops[next];
      if (op.after >= 0 && !results[static_cast<std::size_t>(op.after)].done) {
        break;  // an evict waits for its upload's response
      }
      if (window == 0 ? due_at(start, op) > Clock::now()
                      : outstanding >= window) {
        break;
      }
      Completed& r = results[next];
      if (serial) {
        r.daemon_cpu_ms = -1000.0 * daemon_cpu_s();
      }
      serve::write_frame(daemon.fds[op.conn], op.payload);
      r.sent = Clock::now();
      r.due = window == 0 ? due_at(start, op) : r.sent;
      inflight[op.conn].push_back(next);
      ++outstanding;
      ++next;
    }
    // The open loop busy-polls: a generator that sleeps until the next due
    // time wakes late on a virtualized host (p99 1-7 ms on the 4-vCPU test
    // VM), and that lateness would count as daemon latency.  The spin costs
    // the generator's own core.  The closed loop sleeps until a response
    // arrives.
    const int ready = ::poll(pfds.data(), pfds.size(), window == 0 ? 0 : 100);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t c = 0; ready > 0 && c < conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buffer[1 << 16];
      const ssize_t got = ::read(pfds[c].fd, buffer, sizeof(buffer));
      if (got <= 0) {
        throw std::runtime_error("daemon closed connection " +
                                 std::to_string(c));
      }
      inbox[c].append(buffer, static_cast<std::size_t>(got));
      std::size_t offset = 0;
      std::string_view payload;
      while (const std::size_t used = serve::try_parse_frame(
                 std::string_view(inbox[c]).substr(offset), payload,
                 serve::kMaxFrameBytes)) {
        const std::size_t i = inflight[c].front();
        inflight[c].pop_front();
        Completed& r = results[i];
        if (serial) {
          r.daemon_cpu_ms += 1000.0 * daemon_cpu_s();
        }
        r.response = serve::decode_response(payload);
        r.finished = Clock::now();
        r.done = true;
        --outstanding;
        offset += used;
        tracer.record_async(
            std::string("bench.") + kVerbNames[static_cast<int>(in.ops[i].verb)],
            r.due, r.finished, i + 1,
            static_cast<std::uint32_t>(c + 1));
      }
      inbox[c].erase(0, offset);
    }
  }
}

/// Checks one response against the in-process reference; returns the
/// failure message, empty when correct.
std::string check_response(const Op& op, const serve::Response& r,
                           const ServeInputs& in, const Reference** plan_ref) {
  if (!r.ok) {
    return "error response: " + r.get("message");
  }
  switch (op.verb) {
    case Verb::kPlanWarm:
    case Verb::kPlanCold: {
      const auto it = in.refs.find(op.key.str());
      *plan_ref = &it->second;
      return r.body == it->second.text
                 ? ""
                 : "plan body differs from the in-process plan";
    }
    case Verb::kValidate:
      return r.get("errors") == "0" && only_v012(r.body)
                 ? ""
                 : "validator reported " + r.body;
    case Verb::kList:
      return r.get("models").empty() ? "list without a model count" : "";
    case Verb::kStats:
      return r.get("requests").empty() ? "stats without counters" : "";
    case Verb::kUpload:
      return r.get("layers") == std::to_string(op.expect_layers)
                 ? ""
                 : "upload registered a different layer count";
    case Verb::kEvict:
      return r.get("evicted") == op.key.model ? "" : "evicted the wrong model";
    case Verb::kAnalyze:
      return r.get("errors") == "0" && r.get("warnings") == "0" &&
                     r.get("commands") == std::to_string(in.analyze_commands)
                 ? ""
                 : "analyze disagrees with the in-process analysis";
    case Verb::kDse:
      return dse_accesses(r.body) == in.dse_refs.at(op.key.model)
                 ? ""
                 : "dse sweep differs from the in-process sweep";
  }
  return "unknown verb";
}

struct CacheTotals {
  double hits = 0.0;
  double misses = 0.0;
};

CacheTotals cache_totals(const serve::PlanningService& service) {
  CacheTotals totals;
  for (const serve::RegistrySnapshotRow& row : service.registry().rows()) {
    totals.hits += static_cast<double>(row.cache.hits);
    totals.misses += static_cast<double>(row.cache.misses);
  }
  return totals;
}

}  // namespace

Outcome run_serve(const Options& options, Tracer& tracer) {
  Outcome out;
  const std::size_t nproc =
      std::max<std::size_t>(3, std::thread::hardware_concurrency());
  const double rate = options.rate < 0.0 ? kRatePerSecond : options.rate;
  // The window is kSegments segments: an open loop over two thirds of
  // the segment's share of the window, then a serial loop of a third as
  // many ops.
  const auto open_ops = static_cast<std::size_t>(
      kRatePerSecond * options.seconds * 2 / 3 / kSegments);
  const ServeInputs in = make_inputs(options.seed, kSegments, open_ops,
                                     open_ops / 3, rate, nproc);
  const Warmup warmup = warmup_requests(in);
  const std::string socket_path =
      options.out_dir + "/rainbowd-" + std::to_string(::getpid()) + ".sock";

  // Set-up: start the daemon, upload the zoo and warm its caches with
  // every warm plan key and a dse sweep per model.  It is timed again
  // after the window.
  Daemon daemon;
  const auto set_up = [&] {
    daemon.stop();
    daemon.start(socket_path, nproc - 2, nproc);
    daemon.call_all(warmup.uploads);
    daemon.call_all(warmup.warm);
  };
  SetupTimes setup;
  setup.burst(set_up);
  const serve::ServiceStats stats0 = daemon.service->stats();
  const CacheTotals cache0 = cache_totals(*daemon.service);

  // cpu_s is the daemon's CPU over the open loops: the process minus the
  // generator thread.
  std::vector<Completed> results(in.ops.size());
  const std::size_t window = rate > 0.0 ? 0 : 2 * nproc;
  const std::size_t segment_ops = in.ops.size() / kSegments;
  double cpu_s = 0.0;
  double open_ms = 0.0;
  for (std::size_t first = 0; first < in.ops.size(); first += segment_ops) {
    const std::size_t serial = first + open_ops;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    const double cpu0 = daemon_cpu_s();
    drive(in, daemon, first, serial, start, window, results, tracer);
    cpu_s += daemon_cpu_s() - cpu0;
    open_ms += ms_since(start);
    drive(in, daemon, serial, first + segment_ops, start, 1, results, tracer);
  }
  if (window > 0) {
    std::printf("# serve capacity: %.1f ops/s (%zu ops closed-loop, %zu in "
                "flight, %zu planning workers)\n",
                static_cast<double>(open_ops * kSegments) * 1000.0 / open_ms,
                open_ops * kSegments, window, nproc - 2);
  }
  const serve::ServiceStats stats1 = daemon.service->stats();
  const CacheTotals cache1 = cache_totals(*daemon.service);
  setup.burst(set_up);
  daemon.stop();
  out.passes = 1;

  std::vector<double> verb_ms[kVerbCount];
  std::vector<double> cheap_ms;
  std::vector<double> heavy_ms;
  std::vector<double> late_ms;
  double offchip_mb = 0.0;
  double latency_cycles = 0.0;
  double coalesced = 0.0;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const Completed& r = results[i];
    const char* verb = kVerbNames[static_cast<int>(op.verb)];
    ++out.attempted;
    if (!r.done) {
      out.fail("op " + std::to_string(i) + " (" + verb + "): no response");
      continue;
    }
    if (!op.serial) {
      const double ms = ms_between(r.due, r.finished);
      verb_ms[static_cast<int>(op.verb)].push_back(ms);
      (heavy(op.verb) ? heavy_ms : cheap_ms).push_back(ms);
      late_ms.push_back(ms_between(r.due, r.sent));
    }
    if (r.response.get("coalesced") == "1") {
      coalesced += 1.0;
    }
    const Reference* plan_ref = nullptr;
    const std::string problem = check_response(op, r.response, in, &plan_ref);
    out.check(problem.empty(), "op " + std::to_string(i) + " (" + verb +
                                   " " + op.key.model + "): " + problem);
    if (plan_ref != nullptr) {
      offchip_mb += plan_ref->access_mb;
      latency_cycles += plan_ref->latency_cycles;
    }
    if (op.verb == Verb::kPlanWarm || op.verb == Verb::kPlanCold ||
        op.verb == Verb::kDse) {
      out.digests.push_back({"serve/" + std::to_string(i) + "/" + verb,
                             util::fnv1a(r.response.body)});
    }
  }

  // Serial loop: each op's daemon CPU.  An op that repeats an identical
  // request counts with the fastest of its repeats (as in plan); cold
  // plans, uploads and evicts never repeat and count as measured.
  const auto group = [&](const Op& op) {
    return std::string(kVerbNames[static_cast<int>(op.verb)]) + "/" +
           op.key.str();
  };
  const auto repeats = [](Verb verb) {
    return verb != Verb::kPlanCold && verb != Verb::kUpload &&
           verb != Verb::kEvict;
  };
  std::map<std::string, double> group_fastest;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    if (in.ops[i].serial && results[i].done && repeats(in.ops[i].verb)) {
      const auto [it, fresh] = group_fastest.emplace(
          group(in.ops[i]), results[i].daemon_cpu_ms);
      it->second = std::min(it->second, results[i].daemon_cpu_ms);
    }
  }
  std::vector<double> cheap_cpu_ms;
  std::vector<double> heavy_cpu_ms;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    if (op.serial && results[i].done) {
      (heavy(op.verb) ? heavy_cpu_ms : cheap_cpu_ms)
          .push_back(repeats(op.verb) ? group_fastest.at(group(op))
                                      : results[i].daemon_cpu_ms);
    }
  }

  for (std::size_t v = 0; v < kVerbCount; ++v) {
    const std::string base = std::string("serve.") + kVerbNames[v];
    out.add_layer(base + "_p50_ms", percentile(verb_ms[v], 0.50));
    out.add_layer(base + "_p99_ms", percentile(verb_ms[v], 0.99));
  }
  out.add_layer("serve.cheap_p50_ms", percentile(cheap_ms, 0.50));
  out.add_layer("serve.cheap_p99_ms", percentile(cheap_ms, 0.99));
  out.add_layer("serve.heavy_p50_ms", percentile(heavy_ms, 0.50));
  out.add_layer("serve.gen_late_ms", percentile(late_ms, 0.99));
  out.add_layer("serve.coalesced", coalesced);
  out.add_layer("serve.errors",
                static_cast<double>(stats1.errors - stats0.errors));
  const double hits = cache1.hits - cache0.hits;
  const double misses = cache1.misses - cache0.misses;
  out.add_layer("core.eval_cache.hits", hits);
  out.add_layer("core.eval_cache.misses", misses);
  out.add_layer("core.eval_cache.hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);

  // Traced run only: the schedule through PlanningService::handle in
  // process, so wire time = served latency - handle time.
  if (tracer.enabled()) {
    serve::PlanningService replay;
    for (const auto* requests : {&warmup.uploads, &warmup.warm}) {
      for (const serve::Request& request : *requests) {
        static_cast<void>(replay.handle(request));
      }
    }
    std::vector<double> dse_ms;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const serve::Request request = serve::decode_request(in.ops[i].payload);
      ++out.attempted;
      auto root = tracer.scope("bench.replay_op", i + 1);
      const Clock::time_point t0 = Clock::now();
      const serve::Response response = [&] {
        auto span = tracer.scope("serve.handle");
        return replay.handle(request);
      }();
      if (in.ops[i].verb == Verb::kDse) {
        dse_ms.push_back(ms_since(t0));
      }
      out.check(response.ok, "replay op " + std::to_string(i) + " (" +
                                 request.verb + ") failed: " +
                                 response.get("message"));
    }
    out.add_layer("dse.sweep_ms", median(dse_ms));
  }

  out.modeled["offchip_mb"] = offchip_mb;
  out.modeled["model_latency_mcycles"] = latency_cycles / 1e6;
  out.end_to_end = end_to_end_metrics({
      {"setup_s", setup.fastest_s()},
      {"p50_ms", percentile(cheap_cpu_ms, 0.50)},
      {"p99_ms", percentile(cheap_cpu_ms, 0.99)},
      {"heavy_p50_ms", percentile(heavy_cpu_ms, 0.50)},
      {"cpu_s", cpu_s},
      {"offchip_mb", offchip_mb},
      {"model_latency_mcycles", latency_cycles / 1e6},
      {"peak_rss_mb", peak_rss_mb()},
  });
  return out;
}

}  // namespace perfbench
