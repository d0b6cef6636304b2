// The traced run: per-layer numbers taken from outside the program, by
// timing calls into each layer's public entry points (see README.md).
#ifndef PALMBENCH_TRACE_H_
#define PALMBENCH_TRACE_H_

#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "workload.h"

namespace palmbench {

/// Requests of each operation type replayed layer by layer.
inline constexpr size_t kTraceSamples = 24;
/// Extra ingest batches the replay consumes: each layer call of an ingest
/// chain admits its own batch (warm-up, untraced, HTTP, Dispatch, typed).
inline constexpr size_t kTraceBatches = 5 * kTraceSamples;

/// Runs the traced replay after the live phase of a traced run and
/// returns the per-layer metrics. `live` is the system that served the
/// open loop (already drained), `cache_delta` its front-door counters over
/// the open loop; the replay brings up a second, cache-less system over
/// the same inputs. Spans are written to `spans_path` (JSON lines).
Metrics RunTrace(Workload* workload, System* live, const Schedule& schedule,
                 const std::vector<Outcome>& outcomes,
                 const coconut::palm::api::ServerStatsResponse& cache_delta,
                 const coconut::palm::api::DrainStreamReport& drained,
                 const std::string& spans_path, CheckReport* check);

}  // namespace palmbench

#endif  // PALMBENCH_TRACE_H_
