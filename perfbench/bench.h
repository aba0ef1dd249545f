// Whole-cell benchmark: shared types of the workload catalogue, the
// untraced and traced cell runners, and the report helpers.
//
// The benchmark drives the simulator only through its public entry points
// (core::run_experiment, core::Ssd, sim::Driver, sim::TenantMux,
// workload::SyntheticWorkload, workload::partition_stream, ftl::Ftl) and
// times those calls with its own clocks. See README.md in this directory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace perfbench {

using esp::core::FtlKind;

/// The four FTLs every workload runs, one cell each, in this order.
inline constexpr FtlKind kKinds[] = {FtlKind::kCgm, FtlKind::kFgm,
                                     FtlKind::kSub, FtlKind::kSectorLog};
/// Short metric-name tag of an FTL kind ("cgm", "fgm", "sub", "sectorlog").
std::string kind_tag(FtlKind kind);

/// One benchmark workload: four FTL cells sharing one request stream.
struct Workload {
  std::string name;
  /// Cell spec of one FTL for one seed. Multi-tenant workloads name their
  /// sidecar files under `sidecar_dir` (empty = no sidecars).
  esp::core::ExperimentSpec (*make_spec)(FtlKind kind, std::uint64_t seed,
                                         const std::string& sidecar_dir);
};
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Sidecar byte counts of one observed cell (0 where the stream is off).
struct Sidecars {
  std::uint64_t journal = 0;
  std::uint64_t health = 0;
  std::uint64_t forensics = 0;
};

/// FNV-1a digest of every simulated output of a cell: the window's
/// FtlStats (host-time fields excluded), device erase counters, window
/// sim-time bounds, both latency histograms bucket by bucket, chip and
/// channel utilisation, per-tenant counts and sidecar sizes.
std::uint64_t digest(const esp::core::RunResult& r, const Sidecars& s);

/// One untraced cell: core::run_experiment timed from outside.
struct CellRun {
  esp::core::RunResult r;
  Sidecars sidecars;
  double setup_s = 0.0;     ///< call -> measure_wall_start_s
  double teardown_s = 0.0;  ///< measure_wall_end_s -> return
  double total_s = 0.0;     ///< call -> return
  std::uint64_t digest = 0;
};
/// Runs the spec; sidecars (if any) are measured and deleted afterwards.
CellRun run_untraced(const esp::core::ExperimentSpec& spec);

/// Host time of one layer call site, summed over a window.
struct CallTime {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Host µs per request of one fixed-size chunk of the measured window,
/// with the part spent in the generator and in the FTL.
struct Chunk {
  double start_s = 0.0;  ///< steady-clock seconds
  double end_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t gen_ns = 0;
  std::uint64_t ftl_ns = 0;
};

/// One traced cell (or one shard leaf of a traced sharded cell): the same
/// simulation as run_untraced, rebuilt by hand with spans around every
/// phase and per-call timing of the FTL and the generator.
struct TracedCell {
  esp::core::RunResult r;  ///< digest-relevant fields only
  Sidecars sidecars;
  std::uint64_t digest = 0;
  double start_s = 0.0;
  double construct_s = 0.0;
  double construct_rss_mib = 0.0;
  double precondition_s = 0.0;
  double handoff_s = 0.0;  ///< tracing cost: driver moved onto the timed FTL
  double warmup_s = 0.0;
  double measure_start_s = 0.0;
  double measure_s = 0.0;
  double teardown_s = 0.0;
  double end_s = 0.0;
  CallTime gen, write, read, other;  ///< other = flush + trim + tick
  std::vector<Chunk> chunks;
  // Sharded cells only.
  double split_s = 0.0;
  double fork_join_s = 0.0;
  std::vector<TracedCell> shards;
};
TracedCell run_traced(const esp::core::ExperimentSpec& spec);

// ---- report helpers (report.cpp) ----------------------------------------

double now_s();             ///< steady-clock seconds
double rss_mib();           ///< current resident set
double peak_rss_mib();      ///< process high-water mark
double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]); 0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// Moves the thread that constructs it round-robin over the CPUs it may
/// run on, one step per `period_ms`, until destroyed; then restores its
/// CPU mask. On a shared virtual machine each vCPU runs at its own,
/// slowly drifting speed, so a thread that stays on one vCPU carries that
/// vCPU's drift into the whole run. Visiting every vCPU in turn measures
/// their mean instead.
class CpuRotation {
 public:
  explicit CpuRotation(int period_ms);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  struct State;
  State* state_;
};

/// Named metric values with units, printed as the result's "metrics".
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// JSON string escaping for the few free-text fields we print.
std::string json_str(const std::string& s);
/// "%.17g"-style number that JSON accepts (non-finite -> 0).
std::string json_num(double v);
/// One-line JSON of host and build provenance for `seed`.
std::string provenance_json(std::uint64_t seed);

}  // namespace perfbench
