// espbench: runs one workload of the whole-cell benchmark for a fixed
// host-time budget and prints its metrics.
//
//   espbench --workload steady_gc --seed 1 --seconds 25 --trace 0
//            [--scratch DIR] [--trace-out FILE]
//
// A run repeats rounds -- the workload's four FTL cells, one after another
// -- until the budget is spent. Every round of one seed must reproduce the
// first round's simulated digests. With --trace 1 each round also runs
// every cell a second time, traced (cells.cpp), checks that the traced
// digest equals the untraced one, and reports the per-layer metrics
// instead; the spans go to --trace-out.
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Regime gates and digest mismatches print FATAL lines to stderr, set
// "correct" to false and make the exit code 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "ftl/types.h"

namespace perfbench {
namespace {

using esp::core::ExperimentSpec;
using esp::core::RunResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "espbench: %s\nusage: espbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--scratch") a.scratch = v;
      else if (k == "--trace-out") a.trace_out = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!find_workload(a.workload))
    usage("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

/// Failure bookkeeping shared by both modes.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fatal(const std::string& what) {
    std::fprintf(stderr, "FATAL: %s\n", what.c_str());
    correct = false;
  }
};

/// Measured-window requests a spec plans (counted as failed if it throws).
std::uint64_t planned_requests(const ExperimentSpec& s) {
  std::uint64_t total = s.workload.request_count;
  if (!s.tenants.empty()) {
    total = 0;
    for (const auto& t : s.tenants) total += t.workload.request_count;
  }
  return total > s.warmup_requests ? total - s.warmup_requests : 0;
}

void count_ops(Outcome& o, const RunResult& r) {
  o.attempted += r.raw.requests;
  o.failed += r.raw.verify_failures + r.raw.io_errors;
}

/// Merged counters of a sharded cell must equal the sums over its shards.
bool merged_equals_sum(const RunResult& m) {
  std::uint64_t req = 0, erases = 0, gc = 0, rmw = 0, verify = 0;
  esp::ftl::FtlStats sum;
  for (const RunResult& r : m.shard_results) {
    req += r.raw.requests;
    erases += r.erases;
    gc += r.gc_invocations;
    rmw += r.rmw_ops;
    verify += r.verify_failures;
    sum = esp::ftl::stats_sum(sum, r.raw.ftl_stats);
  }
  const esp::ftl::FtlStats& s = m.raw.ftl_stats;
  return !m.shard_results.empty() && m.raw.requests == req &&
         m.erases == erases && m.gc_invocations == gc && m.rmw_ops == rmw &&
         m.verify_failures == verify &&
         s.host_write_sectors == sum.host_write_sectors &&
         s.flash_prog_full == sum.flash_prog_full &&
         s.flash_prog_sub == sum.flash_prog_sub &&
         s.flash_erases == sum.flash_erases &&
         s.gc_copy_sectors == sum.gc_copy_sectors;
}

/// True when the p99 rank of `h` falls among the samples clamped into the
/// histogram's last bucket, i.e. the reported p99 is the ceiling.
bool p99_clipped(const esp::util::Histogram& h) {
  if (h.total() == 0 || h.overflow() == 0) return false;
  const auto target =
      static_cast<std::uint64_t>(0.99 * static_cast<double>(h.total() - 1));
  return h.overflow() >= h.total() - target;
}

/// The workload's regime gate over one untraced cell of FTL `kind`.
void regime_gate(const std::string& wl, FtlKind kind, const CellRun& cell,
                 Outcome& o) {
  const RunResult& r = cell.r;
  const std::string who = wl + "/" + kind_tag(kind);
  if (wl == "steady_gc" && r.erases == 0)
    o.fatal(who + ": no erases in the measured window (GC regime lost)");
  // erases_per_kreq.sub is the measured count wherever GC may run.
  if (wl != "prod_scale" && kind == FtlKind::kSub && r.erases == 0)
    o.fatal(who + ": no erases in the measured window");
  if (wl == "prod_scale") {
    if (r.gc_invocations != 0) o.fatal(who + ": GC ran in the measured window");
    if (kind == FtlKind::kSub && r.raw.ftl_stats.retention_evictions == 0)
      o.fatal(who + ": no retention evictions in the measured window");
  }
  if (wl == "observed_tenants") {
    const Sidecars& sc = cell.sidecars;
    if (sc.journal == 0 || sc.health == 0 || sc.forensics == 0)
      o.fatal(who + ": empty sidecar stream");
  }
  if (wl == "sharded_gc" && !merged_equals_sum(r))
    o.fatal(who + ": merged counters differ from the sum over shards");
}

/// Runs one cell untraced; a throw counts all its planned requests failed.
bool try_untraced(const ExperimentSpec& spec, const std::string& who,
                  CellRun& out, Outcome& o) {
  try {
    out = run_untraced(spec);
  } catch (const std::exception& e) {
    o.fatal(who + " threw: " + e.what());
    o.attempted += planned_requests(spec);
    o.failed += planned_requests(spec);
    return false;
  }
  count_ops(o, out.r);
  return true;
}

void put(Metrics& m, const std::string& name, double v, const char* unit) {
  m[name] = Metric{v, unit};
}

// ---- untraced mode ---------------------------------------------------------

Metrics run_untraced_mode(const Args& a, const Workload& wl, Outcome& o) {
  // Cells run in kind order, round after round, and the run stops before a
  // cell that would not fit the budget (after at least one full round). So
  // every kind's cells are spread over the whole run, and host-speed swings
  // of a few seconds hit all four kinds alike.
  constexpr std::size_t kN = std::size(kKinds);
  const double start = now_s();
  std::vector<double> setup[kN], total[kN], wall[kN];
  double requests[kN] = {};
  std::uint64_t first_digest[kN] = {};
  RunResult sub;
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % kN;
    if (i >= kN && now_s() - start + total[k].back() > a.seconds) break;
    const std::string who = wl.name + "/" + kind_tag(kKinds[k]);
    CellRun c;
    if (!try_untraced(wl.make_spec(kKinds[k], a.seed, a.scratch), who, c, o))
      break;
    regime_gate(wl.name, kKinds[k], c, o);
    if (i < kN)
      first_digest[k] = c.digest;
    else if (c.digest != first_digest[k])
      o.fatal(who + ": simulated digest differs between rounds of one seed");
    if (!o.correct) break;
    setup[k].push_back(c.setup_s);
    total[k].push_back(c.total_s);
    wall[k].push_back(c.r.measure_wall_seconds);
    requests[k] = static_cast<double>(c.r.raw.requests);
    if (kKinds[k] == FtlKind::kSub) sub = c.r;
    std::printf("cell %s setup_s %.4f total_s %.4f measure_s %.4f\n",
                who.c_str(), c.setup_s, c.total_s, c.r.measure_wall_seconds);
  }
  for (std::size_t k = 0; k < kN; ++k)
    std::printf("digest %s/%s %016llx\n", wl.name.c_str(),
                kind_tag(kKinds[k]).c_str(),
                static_cast<unsigned long long>(first_digest[k]));

  Metrics m;
  if (!o.correct) return m;
  // One round's worth of each: the sum over kinds of each kind's median
  // cell. The measured wall is the mean over a kind's cells, which weighs
  // every host second of the kind's windows alike.
  double setup_s = 0, total_s = 0, req = 0, req_wall = 0;
  for (std::size_t k = 0; k < kN; ++k) {
    double w = 0;
    for (double v : wall[k]) w += v;
    w /= static_cast<double>(wall[k].size());
    setup_s += median(setup[k]);
    total_s += median(total[k]);
    req += requests[k];
    req_wall += w;
    put(m, "kreq_per_s." + kind_tag(kKinds[k]), requests[k] / w / 1e3,
        "kreq/s");
  }
  std::size_t cells = 0;
  for (const auto& t : total) cells += t.size();
  std::printf("cells %zu\n", cells);
  put(m, "setup_s", setup_s, "s");
  put(m, "total_s", total_s, "s");
  put(m, "kreq_per_s", req / req_wall / 1e3, "kreq/s");
  put(m, "peak_rss_mib", peak_rss_mib(), "MiB");
  const double sub_req = static_cast<double>(sub.raw.requests);
  if (wl.name == "prod_scale") {
    // GC never runs here (the regime gate), so the window erases nothing.
    // Its lifetime cost is the blocks its programs fill, each of which
    // costs one erase later: programmed page equivalents (a subpage
    // program fills 1/spp of a page) per block.
    const esp::nand::Geometry geo =
        wl.make_spec(FtlKind::kSub, a.seed, "").ssd.geometry;
    const esp::ftl::FtlStats& st = sub.raw.ftl_stats;
    const double blocks =
        (static_cast<double>(st.flash_prog_full) +
         static_cast<double>(st.flash_prog_sub) / geo.subpages_per_page) /
        geo.pages_per_block;
    put(m, "erases_per_kreq.sub", blocks * 1e3 / sub_req, "count");
  } else {
    put(m, "erases_per_kreq.sub",
        static_cast<double>(sub.erases) * 1e3 / sub_req, "count");
  }
  put(m, "sim_kiops.sub", sub.iops / 1e3, "kIOPS");
  put(m, "waf.sub", sub.overall_waf, "ratio");
  put(m, "resp_p99_us.sub", sub.raw.response_p99_us, "us");
  std::printf("resp_p99_us.sub %s overflow=%llu clipped=%s\n",
              json_num(sub.raw.response_p99_us).c_str(),
              static_cast<unsigned long long>(sub.raw.response_hist.overflow()),
              p99_clipped(sub.raw.response_hist) ? "yes" : "no");
  return m;
}

// ---- traced mode -----------------------------------------------------------

/// Pools traced cells (and shard leaves) into per-layer sums.
struct Ledger {
  double requests = 0, measure_s = 0, chunk_s = 0;
  double gen_ns = 0, ftl_ns = 0, write_ns = 0, write_calls = 0;
  double read_ns = 0, read_calls = 0;
  esp::ftl::FtlStats stats;
  double mapping_bytes = 0, cells = 0;
  double chip_util_mean = 0, chip_util_max = 0;
  double overflow = 0;
  std::vector<double> chunk_us;

  void add_leaf(const TracedCell& c) {
    requests += static_cast<double>(c.r.raw.requests);
    measure_s += c.measure_s;
    gen_ns += static_cast<double>(c.gen.ns);
    write_ns += static_cast<double>(c.write.ns);
    write_calls += static_cast<double>(c.write.calls);
    read_ns += static_cast<double>(c.read.ns);
    read_calls += static_cast<double>(c.read.calls);
    ftl_ns += static_cast<double>(c.write.ns + c.read.ns + c.other.ns);
    stats = esp::ftl::stats_sum(stats, c.r.raw.ftl_stats);
    mapping_bytes += static_cast<double>(c.r.mapping_bytes);
    cells += 1;
    chip_util_mean += c.r.chip_util_mean;
    chip_util_max = std::max(chip_util_max, c.r.chip_util_max);
    overflow += static_cast<double>(c.r.raw.response_hist.overflow());
    for (const Chunk& ch : c.chunks) {
      chunk_s += ch.end_s - ch.start_s;
      chunk_us.push_back((ch.end_s - ch.start_s) * 1e6 /
                         static_cast<double>(ch.requests));
    }
  }
  void add(const TracedCell& c) {
    if (c.shards.empty()) add_leaf(c);
    for (const TracedCell& s : c.shards) add_leaf(s);
  }

  /// The ftl.* rows under `prefix` ("ftl." or "ftl.<kind>.").
  void ftl_rows(Metrics& m, const std::string& p, std::uint32_t page_bytes,
                std::uint32_t sub_bytes) const {
    const auto per = [&](double v, double scale) {
      return requests > 0 ? v * scale / requests : 0.0;
    };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const esp::ftl::FtlStats& s = stats;
    put(m, p + "ns_per_req", per(ftl_ns, 1), "ns");
    put(m, p + "write_ns_per_call", write_calls ? write_ns / write_calls : 0,
        "ns");
    put(m, p + "read_ns_per_call", read_calls ? read_ns / read_calls : 0, "ns");
    put(m, p + "gc_ns_per_req", per(u(s.maint_gc_ns), 1), "ns");
    put(m, p + "maint_ns_per_req",
        per(u(s.maint_retention_ns + s.maint_wear_level_ns +
              s.maint_release_idle_ns),
            1),
        "ns");
    put(m, p + "waf", s.overall_waf(page_bytes, sub_bytes), "ratio");
    put(m, p + "gc_per_kreq", per(u(s.gc_invocations), 1e3), "count");
    put(m, p + "gc_copy_per_erase",
        s.flash_erases ? u(s.gc_copy_sectors) / u(s.flash_erases) : 0.0,
        "sectors");
    put(m, p + "rmw_per_kreq", per(u(s.rmw_ops), 1e3), "count");
    put(m, p + "forward_per_kreq", per(u(s.forward_migrations), 1e3), "count");
    put(m, p + "retention_evict_per_kreq", per(u(s.retention_evictions), 1e3),
        "count");
    put(m, p + "buffer_hit_ratio",
        s.host_read_sectors ? u(s.buffer_hits) / u(s.host_read_sectors) : 0.0,
        "ratio");
    put(m, p + "mapping_mib", cells ? mapping_bytes / cells / 1048576.0 : 0.0,
        "MiB");
  }
};

/// Spans of one traced cell as JSON lines: name, start, end, parent.
void write_spans(std::ostream& os, const TracedCell& c, const std::string& name,
                 int& next_id, int parent) {
  const auto span = [&](const std::string& n, double s, double e, int p,
                        const std::string& extra = "") {
    const int id = next_id++;
    os << "{\"id\": " << id << ", \"parent\": " << p
       << ", \"name\": " << json_str(n) << ", \"start_s\": " << json_num(s)
       << ", \"end_s\": " << json_num(e) << extra << "}\n";
    return id;
  };
  const int cell = span(name, c.start_s, c.end_s, parent);
  if (!c.shards.empty()) {
    span("workload.split", c.start_s, c.start_s + c.split_s, cell);
    const int fj = span("core.shard_fork_join", c.end_s - c.fork_join_s,
                        c.end_s, cell);
    for (std::size_t i = 0; i < c.shards.size(); ++i)
      write_spans(os, c.shards[i], "shard" + std::to_string(i), next_id, fj);
    return;
  }
  double t = c.start_s;
  for (const auto& [n, d] :
       {std::pair<const char*, double>{"core.construct", c.construct_s},
        {"core.precondition", c.precondition_s},
        {"trace.handoff", c.handoff_s},
        {"core.warmup", c.warmup_s}}) {
    span(n, t, t + d, cell);
    t += d;
  }
  const int measure = span("sim.measure", c.measure_start_s,
                           c.measure_start_s + c.measure_s, cell);
  for (const Chunk& ch : c.chunks)
    span("sim.chunk", ch.start_s, ch.end_s, measure,
         ", \"requests\": " + std::to_string(ch.requests) +
             ", \"workload.gen_ns\": " + std::to_string(ch.gen_ns) +
             ", \"ftl_ns\": " + std::to_string(ch.ftl_ns));
  span("core.teardown", c.end_s - c.teardown_s, c.end_s, cell);
}

/// Measured wall of a traced cell: fork-to-join of the shard windows for a
/// sharded cell, as the orchestrator reports it.
double traced_measure_wall(const TracedCell& c) {
  if (c.shards.empty()) return c.measure_s;
  double lo = 1e300, hi = 0;
  for (const TracedCell& s : c.shards) {
    lo = std::min(lo, s.measure_start_s);
    hi = std::max(hi, s.measure_start_s + s.measure_s);
  }
  return hi - lo;
}

void check_traced_digest(const std::string& who, const CellRun& u,
                         const TracedCell& t, Outcome& o) {
  if (t.shards.empty()) {
    if (t.digest != u.digest)
      o.fatal(who + ": traced digest differs from the untraced cell");
    return;
  }
  if (t.shards.size() != u.r.shard_results.size()) {
    o.fatal(who + ": traced shard count differs");
    return;
  }
  for (std::size_t i = 0; i < t.shards.size(); ++i)
    if (t.shards[i].digest != digest(u.r.shard_results[i], Sidecars{}))
      o.fatal(who + "/shard" + std::to_string(i) +
              ": traced digest differs from the untraced shard");
}

Metrics run_traced_mode(const Args& a, const Workload& wl, Outcome& o) {
  const double start = now_s();
  const bool observed = wl.name == "observed_tenants";
  Ledger all;
  std::vector<Ledger> per_kind(std::size(kKinds));
  double construct = 0, construct_rss = 0, precondition = 0, warmup = 0;
  double teardown = 0, split = 0, fork_join = 0, imbalance = 0;
  double cells = 0, untraced_req = 0, untraced_wall = 0, traced_wall = 0;
  double observer_ns = 0, observer_req = 0;
  Sidecars bytes;
  std::uint32_t page_bytes = 0, sub_bytes = 0;
  std::ofstream spans;
  if (!a.trace_out.empty()) {
    spans.open(a.trace_out);
    spans << provenance_json(a.seed) << "\n";
  }
  int next_id = 1;
  double last_round = 0;
  int round = 0;
  do {
    const double r0 = now_s();
    std::vector<CellRun> round_cells(std::size(kKinds));
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      const std::string who = wl.name + "/" + kind_tag(kKinds[k]);
      const ExperimentSpec spec = wl.make_spec(kKinds[k], a.seed, a.scratch);
      page_bytes = spec.ssd.geometry.page_bytes;
      sub_bytes = spec.ssd.geometry.subpage_bytes();
      CellRun& u = round_cells[k];
      TracedCell t;
      // Alternate which side runs first so drift on the host hits both.
      const bool traced_first = (k + round) % 2 == 1;
      try {
        if (traced_first) t = run_traced(spec);
        if (!try_untraced(spec, who, u, o)) continue;
        if (!traced_first) t = run_traced(spec);
      } catch (const std::exception& e) {
        o.fatal(who + " (traced) threw: " + e.what());
        continue;
      }
      check_traced_digest(who, u, t, o);
      if (round == 0)
        std::printf("digest %s %016llx\n", who.c_str(),
                    static_cast<unsigned long long>(u.digest));
      if (observed) {
        // Paired observers-off cell over the same stream.
        CellRun off;
        if (!try_untraced(wl.make_spec(kKinds[k], a.seed, ""), who + "/off",
                          off, o))
          continue;
        if (digest(off.r, Sidecars{}) != digest(u.r, Sidecars{}))
          o.fatal(who + ": observers changed the simulation");
        observer_ns +=
            (u.r.measure_wall_seconds - off.r.measure_wall_seconds) * 1e9;
        observer_req += static_cast<double>(u.r.raw.requests);
      }
      all.add(t);
      per_kind[k].add(t);
      ++cells;
      untraced_req += static_cast<double>(u.r.raw.requests);
      untraced_wall += u.r.measure_wall_seconds;
      traced_wall += traced_measure_wall(t);
      bytes.journal += t.sidecars.journal;
      bytes.health += t.sidecars.health;
      bytes.forensics += t.sidecars.forensics;
      split += t.split_s;
      fork_join += t.fork_join_s;
      const std::vector<TracedCell> leaves =
          t.shards.empty() ? std::vector<TracedCell>{t} : t.shards;
      double max_m = 0, sum_m = 0;
      for (const TracedCell& l : leaves) {
        construct += l.construct_s;
        construct_rss = std::max(construct_rss, l.construct_rss_mib);
        precondition += l.precondition_s;
        warmup += l.warmup_s;
        teardown += l.teardown_s;
        max_m = std::max(max_m, l.measure_s);
        sum_m += l.measure_s;
      }
      imbalance += sum_m > 0 ? max_m / (sum_m / leaves.size()) : 1.0;
      if (spans) write_spans(spans, t, who, next_id, 0);
    }
    if (o.correct)
      for (std::size_t k = 0; k < std::size(kKinds); ++k)
        regime_gate(wl.name, kKinds[k], round_cells[k], o);
    last_round = now_s() - r0;
    ++round;
  } while (o.correct && now_s() - start + last_round <= a.seconds);
  std::printf("rounds %d\n", round);

  const double rounds = round;
  const double req = all.requests;
  const auto per_req = [req](double v) { return req > 0 ? v / req : 0.0; };
  Metrics m;
  put(m, "core.construct_s", construct / rounds, "s");
  put(m, "core.construct_rss_mib", construct_rss, "MiB");
  put(m, "core.precondition_s", precondition / rounds, "s");
  put(m, "core.warmup_s", warmup / rounds, "s");
  put(m, "core.teardown_s", teardown / rounds, "s");
  put(m, "core.shard_fork_join_s", fork_join / rounds, "s");
  put(m, "core.shard_imbalance", cells ? imbalance / cells : 0.0, "ratio");
  put(m, "workload.gen_ns_per_req", per_req(all.gen_ns), "ns");
  put(m, "workload.split_s", split / rounds, "s");
  put(m, "sim.driver_ns_per_req",
      per_req(all.measure_s * 1e9 - all.gen_ns - all.ftl_ns), "ns");
  put(m, "sim.chunk_us_p50", percentile(all.chunk_us, 0.50), "us");
  put(m, "sim.chunk_us_p99", percentile(all.chunk_us, 0.99), "us");
  all.ftl_rows(m, "ftl.", page_bytes, sub_bytes);
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    per_kind[k].ftl_rows(m, "ftl." + kind_tag(kKinds[k]) + ".", page_bytes,
                         sub_bytes);
  const esp::ftl::FtlStats& s = all.stats;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  put(m, "nand.prog_full_per_req", per_req(u(s.flash_prog_full)), "count");
  put(m, "nand.prog_sub_per_req", per_req(u(s.flash_prog_sub)), "count");
  put(m, "nand.reads_per_req", per_req(u(s.flash_reads)), "count");
  put(m, "nand.erases_per_kreq", per_req(u(s.flash_erases) * 1e3), "count");
  put(m, "nand.chip_util_mean", all.cells ? all.chip_util_mean / all.cells : 0,
      "ratio");
  put(m, "nand.chip_util_max", all.chip_util_max, "ratio");
  put(m, "telemetry.observer_ns_per_req",
      observer_req > 0 ? observer_ns / observer_req : 0.0, "ns");
  put(m, "telemetry.journal_bytes_per_req", per_req(u(bytes.journal)), "B");
  put(m, "telemetry.health_bytes_per_req", per_req(u(bytes.health)), "B");
  put(m, "telemetry.forensics_bytes_per_req", per_req(u(bytes.forensics)),
      "B");
  // subFTL responses above the histogram ceiling, per round: says whether
  // resp_p99_us.sub is a real tail or the ceiling.
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    if (kKinds[k] == FtlKind::kSub)
      put(m, "telemetry.resp_overflow", per_kind[k].overflow / rounds,
          "count");
  put(m, "trace.overhead_ratio",
      untraced_wall > 0 && traced_wall > 0
          ? (req / traced_wall) / (untraced_req / untraced_wall)
          : 0.0,
      "ratio");
  put(m, "trace.uncovered_share",
      all.measure_s > 0 ? (all.measure_s - all.chunk_s) / all.measure_s : 0.0,
      "ratio");
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  const Workload& wl = *find_workload(a.workload);
  std::printf("%s\n", provenance_json(a.seed).c_str());
  std::error_code ec;
  std::filesystem::create_directories(a.scratch, ec);

  Outcome o;
  // Single-threaded workloads only: threads inherit their creator's CPU
  // mask, so shard workers started under rotation would all share one CPU.
  // A sharded cell's threads cover the vCPUs on their own.
  std::optional<CpuRotation> rotation;
  if (wl.make_spec(FtlKind::kSub, a.seed, "").shards <= 1)
    rotation.emplace(250);
  const Metrics m =
      a.trace ? run_traced_mode(a, wl, o) : run_untraced_mode(a, wl, o);
  if (o.failed > 0) o.fatal(std::to_string(o.failed) + " requests failed");
  if (o.attempted == 0) o.fatal("no requests attempted");

  for (const auto& [name, v] : m)
    std::printf("metric %-40s %s %s\n", name.c_str(), json_num(v.value).c_str(),
                v.unit.c_str());
  std::printf("ops %llu ops_failed %llu\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  std::ostringstream os;
  os << "{\"correct\": " << (o.correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m) {
    os << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
       << json_num(v.value) << ", \"unit\": " << json_str(v.unit) << "}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return o.correct ? 0 : 1;
}
