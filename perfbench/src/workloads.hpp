// The three workloads (README.md says why each exists):
//   plan     cold planning requests: parse -> Algorithm 1 -> validate ->
//            serialize, one fresh EvalCache each, single-threaded;
//   certify  lower -> stream analysis -> dependence graph -> races ->
//            critical path -> certified optimizer over a fixed plan set;
//   serve    an in-process rainbowd on a unix socket driven by an
//            open-loop, fixed-rate schedule of cheap and heavy verbs.
// Each fills every end-to-end metric, its per-layer counters, the per-op
// digests and the modeled totals; main.cpp adds the per-layer timings
// from the trace.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_plan(const Options& options, Tracer& tracer);
[[nodiscard]] Outcome run_certify(const Options& options, Tracer& tracer);
[[nodiscard]] Outcome run_serve(const Options& options, Tracer& tracer);

}  // namespace perfbench
