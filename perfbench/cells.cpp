// Workload catalogue and the two cell runners.
//
// run_untraced() is core::run_experiment timed from outside: it gives the
// end-to-end numbers. run_traced() rebuilds the same cell from the public
// pieces (Ssd, Driver, TenantMux, the telemetry sinks) so that it can put
// a span around each phase and a clock around every FTL and generator
// call. The driver state built during preconditioning is moved onto a
// Driver that talks to a timing wrapper of the FTL (Driver::save_state /
// load_state); the traced cell must then reproduce the untraced cell's
// simulated digest bit for bit, which main.cpp checks.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/parallel_runner.h"
#include "core/shard.h"
#include "core/ssd.h"
#include "ftl/ftl.h"
#include "sim/driver.h"
#include "sim/tenant_mux.h"
#include "telemetry/auditor.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "util/serialize.h"
#include "workload/profiles.h"
#include "workload/splitter.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace esp;

// ---- workload catalogue ----------------------------------------------------
//
// Request budgets are per cell. The measured windows are most of each
// cell's host time (one round of four cells takes 9-17 s), so host-speed
// drift averages out over long windows, and each workload's regime gate
// holds on every seed: GC and erases in every steady_gc window, none in
// any prod_scale window, subFTL erases in every other one. Below about
// 300k requests, observed_tenants' p99 catches the ycsb tenant's backlog
// still building and swings with the seed.
constexpr std::uint64_t kSteadyWarmup = 200000;
constexpr std::uint64_t kSteadyMeasure = 450000;
constexpr std::uint64_t kShardedMeasure = 600000;
constexpr std::uint64_t kProdWarmup = 30000;
constexpr std::uint64_t kProdMeasure = 450000;
constexpr std::uint64_t kTenantWarmup = 20000;
constexpr std::uint64_t kTenantMeasure = 360000;

/// macro_replay's mixed stream: small hot sync updates over a quarter of
/// the footprint, colder multi-page writes, reads and a few trims.
workload::SyntheticParams mixed_stream(std::uint32_t spp, std::uint64_t seed,
                                       double think_us) {
  workload::SyntheticParams p;
  p.sectors_per_page = spp;
  p.r_small = 0.6;
  p.r_synch = 0.9;
  p.read_fraction = 0.35;
  p.trim_fraction = 0.02;
  p.small_sectors_min = 1;
  p.small_sectors_max = 3;
  p.large_pages_min = 1;
  p.large_pages_max = 4;
  p.large_align_prob = 0.85;
  p.small_footprint_fraction = 0.25;
  p.think_us = think_us;
  p.seed = seed;
  return p;
}

/// macro_replay's cell configuration: 79% logical space, a 1,024-sector
/// write buffer, 16 GC reserve blocks and host queue depth 128.
core::SsdConfig base_ssd(FtlKind kind, const nand::Geometry& geo) {
  core::SsdConfig ssd;
  ssd.geometry = geo;
  ssd.ftl = kind;
  ssd.logical_fraction = 0.79;
  ssd.buffer_sectors = 1024;
  ssd.gc_reserve_blocks = 16;
  ssd.queue_depth = 128;
  return ssd;
}

std::uint64_t stream_seed(const std::string& key, std::uint64_t seed) {
  return core::stable_cell_seed("perfbench/" + key, seed);
}

core::ExperimentSpec steady_gc(FtlKind kind, std::uint64_t seed,
                               const std::string&) {
  core::ExperimentSpec spec;
  spec.ssd = base_ssd(kind, nand::Geometry{});  // paper: 16 GiB, 4096 blocks
  spec.precondition_fraction = 0.9;
  spec.warmup_requests = kSteadyWarmup;
  spec.workload = mixed_stream(spec.ssd.geometry.subpages_per_page,
                               stream_seed("steady_gc", seed), 0.0);
  spec.workload.request_count = kSteadyWarmup + kSteadyMeasure;
  return spec;
}

core::ExperimentSpec prod_scale(FtlKind kind, std::uint64_t seed,
                                const std::string&) {
  nand::Geometry geo;  // prod: 64 GiB, 65,536 blocks
  geo.blocks_per_chip = 2048;
  geo.pages_per_block = 64;
  core::ExperimentSpec spec;
  spec.ssd = base_ssd(kind, geo);
  // macro_replay's compressed maintenance clock (retention scan every 2 s,
  // eviction at 8 s, wear-level check every 256 writes at threshold 8), so
  // retention eviction and wear levelling fire inside the window.
  spec.ssd.retention_scan_interval = 2 * sim_time::kSecond;
  spec.ssd.retention_evict_age = 8 * sim_time::kSecond;
  spec.ssd.wl_check_interval = 256;
  spec.ssd.wl_pe_threshold = 8;
  spec.precondition_fraction = 0.78;
  spec.warmup_requests = kProdWarmup;
  spec.workload = mixed_stream(geo.subpages_per_page,
                               stream_seed("prod_scale", seed), 400.0);
  spec.workload.request_count = kProdWarmup + kProdMeasure;
  return spec;
}

core::ExperimentSpec observed_tenants(FtlKind kind, std::uint64_t seed,
                                      const std::string& sidecar_dir) {
  core::ExperimentSpec spec;
  spec.ssd = base_ssd(kind, nand::Geometry{});
  spec.qos = sim::QosPolicy::kWeightedShare;
  spec.precondition_fraction = 0.9;
  spec.warmup_requests = kTenantWarmup;
  const std::uint32_t spp = spec.ssd.geometry.subpages_per_page;
  // Requests split 1:1 between the tenants; footprints default to the
  // preconditioned share of each tenant's namespace slice.
  const std::uint64_t per_tenant = (kTenantWarmup + kTenantMeasure) / 2;
  core::TenantSpec mail;
  mail.name = "varmail";
  mail.weight = 8.0;
  mail.queue_depth = 8;
  mail.workload = workload::benchmark_profile(
      workload::Benchmark::kVarmail, 0, per_tenant, spp,
      stream_seed("observed_tenants/varmail", seed));
  core::TenantSpec bulk;
  bulk.name = "ycsb";
  bulk.weight = 1.0;
  bulk.queue_depth = 64;
  bulk.workload = workload::benchmark_profile(
      workload::Benchmark::kYcsb, 0, per_tenant, spp,
      stream_seed("observed_tenants/ycsb", seed));
  spec.tenants = {mail, bulk};
  spec.workload.seed = mail.workload.seed;  // stamps the sidecar headers
  if (!sidecar_dir.empty()) {
    const std::string stem = sidecar_dir + "/" + kind_tag(kind);
    spec.journal_path = stem + ".journal.jsonl";
    spec.health_path = stem + ".health.jsonl";
    spec.forensics_path = stem + ".forensics.jsonl";
    spec.health_interval_us = 0.5 * sim_time::kSecond;
    spec.audit = true;
  }
  return spec;
}

core::ExperimentSpec sharded_gc(FtlKind kind, std::uint64_t seed,
                                const std::string& dir) {
  core::ExperimentSpec spec = steady_gc(kind, seed, dir);
  // Each shard gets a quarter of the stream on a quarter of the device, so
  // the same warmup reaches the same GC regime. The measured window is
  // larger than steady_gc's so that each shard still measures for a few
  // tenths of a second; shorter parallel windows swing with every hiccup of
  // the host.
  spec.workload.request_count = kSteadyWarmup + kShardedMeasure;
  spec.shards = 4;
  spec.shard_jobs =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  return spec;
}

// ---- timing wrappers -------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Forwarding FTL that times every host-path call while `timing` is set.
class TimedFtl final : public ftl::Ftl {
 public:
  explicit TimedFtl(ftl::Ftl& inner) : inner_(inner) {}

  bool timing = false;
  CallTime write_t, read_t, other_t;

  ftl::IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                      SimTime now) override {
    if (!timing) return inner_.write(sector, count, sync, now);
    const std::uint64_t t0 = now_ns();
    const ftl::IoResult r = inner_.write(sector, count, sync, now);
    add(write_t, t0);
    return r;
  }
  ftl::IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                     std::vector<std::uint64_t>* tokens) override {
    if (!timing) return inner_.read(sector, count, now, tokens);
    const std::uint64_t t0 = now_ns();
    const ftl::IoResult r = inner_.read(sector, count, now, tokens);
    add(read_t, t0);
    return r;
  }
  ftl::IoResult flush(SimTime now) override {
    if (!timing) return inner_.flush(now);
    const std::uint64_t t0 = now_ns();
    const ftl::IoResult r = inner_.flush(now);
    add(other_t, t0);
    return r;
  }
  void trim(std::uint64_t sector, std::uint32_t count) override {
    if (!timing) return inner_.trim(sector, count);
    const std::uint64_t t0 = now_ns();
    inner_.trim(sector, count);
    add(other_t, t0);
  }
  SimTime tick(SimTime now) override {
    if (!timing) return inner_.tick(now);
    const std::uint64_t t0 = now_ns();
    const SimTime r = inner_.tick(now);
    add(other_t, t0);
    return r;
  }
  std::uint64_t logical_sectors() const override {
    return inner_.logical_sectors();
  }
  const ftl::FtlStats& stats() const override { return inner_.stats(); }
  std::uint64_t mapping_memory_bytes() const override {
    return inner_.mapping_memory_bytes();
  }
  std::string name() const override { return inner_.name(); }
  void set_telemetry(telemetry::Sink* sink) override {
    inner_.set_telemetry(sink);
  }
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    inner_.collect_health(out);
  }
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }
  void save_state(util::StateWriter& w) const override { inner_.save_state(w); }
  void load_state(util::StateReader& r) override { inner_.load_state(r); }

  std::uint64_t total_ns() const { return write_t.ns + read_t.ns + other_t.ns; }

 private:
  static void add(CallTime& c, std::uint64_t t0) {
    ++c.calls;
    c.ns += now_ns() - t0;
  }
  ftl::Ftl& inner_;
};

/// Cuts the measured window into fixed-size request chunks and sums the
/// generator and FTL time inside each. Shared by every timed source of a
/// cell (the mux pulls from one source per tenant).
class ChunkClock {
 public:
  static constexpr std::uint64_t kChunkRequests = 1024;

  explicit ChunkClock(const TimedFtl& ftl) : ftl_(&ftl) {}

  /// Called at the start of every next(); opens/rolls chunks.
  void on_pull(std::uint64_t t_ns) {
    if (!open_) {
      open(t_ns);
    } else if (cur_.requests == kChunkRequests) {
      close(t_ns);
      open(t_ns);
    }
  }
  void on_pulled(std::uint64_t t0, std::uint64_t t1, bool got) {
    ++gen.calls;
    gen.ns += t1 - t0;
    if (got) ++cur_.requests;
  }
  /// Closes the final partial chunk at the end of the window.
  void finish(std::uint64_t t_ns) {
    if (open_ && cur_.requests > 0) close(t_ns);
    open_ = false;
  }

  CallTime gen;
  std::vector<Chunk> chunks;

 private:
  void open(std::uint64_t t) {
    open_ = true;
    cur_ = Chunk{};
    cur_.start_s = static_cast<double>(t) * 1e-9;
    gen_at_open_ = gen.ns;
    ftl_at_open_ = ftl_->total_ns();
  }
  void close(std::uint64_t t) {
    cur_.end_s = static_cast<double>(t) * 1e-9;
    cur_.gen_ns = gen.ns - gen_at_open_;
    cur_.ftl_ns = ftl_->total_ns() - ftl_at_open_;
    chunks.push_back(cur_);
  }

  const TimedFtl* ftl_;
  bool open_ = false;
  Chunk cur_;
  std::uint64_t gen_at_open_ = 0;
  std::uint64_t ftl_at_open_ = 0;
};

class TimedSource final : public workload::RequestSource {
 public:
  TimedSource(workload::RequestSource& inner, ChunkClock& clock)
      : inner_(inner), clock_(clock) {}
  std::optional<workload::Request> next() override {
    const std::uint64_t t0 = now_ns();
    clock_.on_pull(t0);
    std::optional<workload::Request> r = inner_.next();
    clock_.on_pulled(t0, now_ns(), r.has_value());
    return r;
  }

 private:
  workload::RequestSource& inner_;
  ChunkClock& clock_;
};

// ---- observers of the traced cell ------------------------------------------

/// The sinks run_experiment opens for a spec's sidecar paths, opened the
/// same way on a private facade.
struct Observers {
  std::optional<telemetry::Telemetry> tel;
  std::optional<std::ofstream> journal_os, health_os, forensics_os;
  std::optional<telemetry::Journal> journal;
  std::optional<telemetry::Auditor> auditor;
  std::optional<telemetry::HealthMonitor> health;
  std::optional<telemetry::ForensicsCollector> forensics;

  explicit Observers(const core::ExperimentSpec& spec) {
    const bool any = !spec.journal_path.empty() || spec.audit ||
                     !spec.health_path.empty() || !spec.forensics_path.empty();
    if (!any) return;
    telemetry::TelemetryConfig cfg;
    cfg.trace_capacity = 256;
    cfg.op_detail = false;
    tel.emplace(cfg);
    const auto& geo = spec.ssd.geometry;
    const std::string ftl = core::ftl_kind_name(spec.ssd.ftl);
    const auto open = [](std::optional<std::ofstream>& os,
                         const std::string& path) {
      os.emplace(path, std::ios::out | std::ios::trunc | std::ios::binary);
      if (!*os) throw std::runtime_error("cannot open sidecar " + path);
    };
    if (!spec.journal_path.empty()) {
      open(journal_os, spec.journal_path);
      telemetry::JournalHeader h;
      h.ftl = ftl;
      h.chips = geo.total_chips();
      h.blocks_per_chip = geo.blocks_per_chip;
      h.pages_per_block = geo.pages_per_block;
      h.subpages_per_page = geo.subpages_per_page;
      h.page_bytes = geo.page_bytes;
      h.seed = spec.workload.seed;
      h.shard = spec.shard_index;
      h.shards = spec.shard_count;
      journal.emplace(*journal_os, h, spec.journal_max_events, false);
      tel->set_journal(&*journal);
    }
    if (spec.audit) {
      telemetry::AuditorConfig c;
      c.chips = geo.total_chips();
      c.blocks_per_chip = geo.blocks_per_chip;
      c.pages_per_block = geo.pages_per_block;
      c.subpages_per_page = geo.subpages_per_page;
      auditor.emplace(c);
      tel->set_auditor(&*auditor);
    }
    if (!spec.health_path.empty()) {
      open(health_os, spec.health_path);
      telemetry::HealthHeader h;
      h.ftl = ftl;
      h.chips = geo.total_chips();
      h.blocks_per_chip = geo.blocks_per_chip;
      h.pages_per_block = geo.pages_per_block;
      h.subpages_per_page = geo.subpages_per_page;
      h.seed = spec.workload.seed;
      h.interval_us = spec.health_interval_us;
      h.rated_pe = spec.health_rated_pe;
      h.shard = spec.shard_index;
      h.shards = spec.shard_count;
      health.emplace(*health_os, h, false);
      tel->set_health(&*health);
    }
    if (!spec.forensics_path.empty()) {
      open(forensics_os, spec.forensics_path);
      telemetry::ForensicsHeader h;
      h.ftl = ftl;
      h.chips = geo.total_chips();
      h.blocks_per_chip = geo.blocks_per_chip;
      h.pages_per_block = geo.pages_per_block;
      h.subpages_per_page = geo.subpages_per_page;
      h.page_bytes = geo.page_bytes;
      h.seed = spec.workload.seed;
      h.shard = spec.shard_index;
      h.shards = spec.shard_count;
      telemetry::ForensicsCollector::Config c;
      c.top_k = spec.forensics_top;
      c.audit = spec.audit;
      c.tenant_hists = spec.tenants.size() > 1;
      forensics.emplace(*forensics_os, h, c, false);
      tel->set_forensics(&*forensics);
    }
  }

  /// Writes the trailers and closes the files (the sinks stay alive).
  void finish() {
    if (journal) journal->finish();
    if (health) health->finish();
    if (forensics) forensics->finish();
    if (tel) {
      tel->set_journal(nullptr);
      tel->set_auditor(nullptr);
      tel->set_health(nullptr);
      tel->set_forensics(nullptr);
    }
    for (auto* os : {&journal_os, &health_os, &forensics_os})
      if (*os) (*os)->close();
  }
};

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = path.empty() ? 0 : std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

Sidecars collect_sidecars(const core::ExperimentSpec& spec) {
  Sidecars s{file_bytes(spec.journal_path), file_bytes(spec.health_path),
             file_bytes(spec.forensics_path)};
  std::error_code ec;
  for (const std::string* p :
       {&spec.journal_path, &spec.health_path, &spec.forensics_path})
    if (!p->empty()) std::filesystem::remove(*p, ec);
  return s;
}

/// Footprint default of run_experiment: the preconditioned share of the
/// (slice of the) logical space, page aligned.
std::uint64_t default_footprint(double fraction, std::uint64_t sectors,
                                std::uint32_t subs) {
  return static_cast<std::uint64_t>(fraction * static_cast<double>(sectors)) /
         subs * subs;
}

/// Unsharded traced cell; see the file comment.
TracedCell run_traced_leaf(const core::ExperimentSpec& spec) {
  TracedCell out;
  const auto& geo = spec.ssd.geometry;
  const std::uint32_t subs = geo.subpages_per_page;
  out.start_s = now_s();

  // Declared before the Ssd, as in run_experiment: sinks outlive it.
  Observers obs(spec);
  const double rss0 = rss_mib();
  auto ssd = std::make_unique<core::Ssd>(spec.ssd);
  double t = now_s();
  out.construct_s = t - out.start_s;
  out.construct_rss_mib = rss_mib() - rss0;

  ssd->precondition(spec.precondition_fraction);
  out.precondition_s = now_s() - t;
  t = now_s();

  // Hand the driver's state over to a driver on the timed FTL.
  auto timed = std::make_unique<TimedFtl>(ssd->ftl());
  auto drv = std::make_unique<sim::Driver>(*timed, ssd->device(),
                                           spec.ssd.queue_depth);
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    util::StateWriter w(buf);
    ssd->driver().save_state(w);
    util::StateReader r(buf);
    drv->load_state(r);
  }
  if (obs.tel) {
    ssd->device().set_telemetry(&*obs.tel);
    timed->set_telemetry(&*obs.tel);
    drv->set_telemetry(&*obs.tel);
  }
  out.handoff_s = now_s() - t;
  t = now_s();

  std::optional<workload::SyntheticWorkload> stream;
  workload::RequestSource* source = spec.stream;
  std::vector<workload::SyntheticWorkload> tenant_streams;
  std::vector<sim::TenantMux::Lane> lanes;
  if (spec.tenants.empty()) {
    if (source == nullptr) {
      workload::SyntheticParams p = spec.workload;
      if (p.footprint_sectors == 0)
        p.footprint_sectors = default_footprint(spec.precondition_fraction,
                                                ssd->logical_sectors(), subs);
      stream.emplace(p);
      source = &*stream;
    }
  } else {
    const auto slices = sim::partition_namespaces(ssd->logical_sectors(),
                                                  spec.tenants.size(), subs);
    tenant_streams.reserve(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
      const core::TenantSpec& ts = spec.tenants[i];
      workload::SyntheticParams p = ts.workload;
      if (p.footprint_sectors == 0)
        p.footprint_sectors = default_footprint(spec.precondition_fraction,
                                                slices[i].sectors, subs);
      p.footprint_sectors = std::min(p.footprint_sectors, slices[i].sectors);
      tenant_streams.emplace_back(p);
      sim::TenantMux::Lane lane;
      lane.config.name = ts.name.empty() ? "t" + std::to_string(i) : ts.name;
      lane.config.weight = ts.weight;
      lane.config.queue_depth = ts.queue_depth;
      lane.ns = slices[i];
      lanes.push_back(std::move(lane));
    }
  }

  ChunkClock clock(*timed);
  std::vector<std::unique_ptr<TimedSource>> timed_sources;
  std::optional<sim::TenantMux> mux;
  if (!spec.tenants.empty()) {
    // The mux holds its lanes' sources for the whole cell, so the timed
    // wrappers are in place from warmup on; the FTL clock only runs in the
    // measured window, and the generator and chunk clocks restart there.
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      timed_sources.push_back(
          std::make_unique<TimedSource>(tenant_streams[i], clock));
      lanes[i].source = timed_sources.back().get();
    }
    mux.emplace(*drv, spec.qos, std::move(lanes));
    if (obs.tel) mux->set_registry(&obs.tel->registry());
  }

  if (spec.warmup_requests > 0) {
    if (mux)
      mux->run(false, spec.warmup_requests);
    else
      drv->run(*source, false, spec.warmup_requests);
  }
  drv->close_health_epoch();
  out.warmup_s = now_s() - t;
  clock = ChunkClock(*timed);

  const ftl::FtlStats before = ssd->ftl().stats();
  std::vector<SimTime> chip_before(geo.total_chips());
  for (std::uint32_t c = 0; c < geo.total_chips(); ++c)
    chip_before[c] = ssd->device().chip_busy_us(c);
  std::vector<SimTime> chan_before(geo.channels);
  for (std::uint32_t c = 0; c < geo.channels; ++c)
    chan_before[c] = ssd->device().channel_busy_us(c);

  sim::RunMetrics m;
  sim::MuxRunMetrics mm;
  t = now_s();
  out.measure_start_s = t;
  timed->timing = true;
  if (mux) {
    const util::Histogram lat0 = drv->latency_histogram();
    const util::Histogram resp0 = drv->response_histogram();
    const std::uint64_t fail0 = drv->verify_failures();
    const std::uint64_t erases0 = ssd->device().counters().erases;
    mm = mux->run(spec.verify);
    clock.finish(now_ns());
    m.requests = mm.requests;
    for (const sim::TenantMetrics& tm : mm.tenants) {
      m.write_requests += tm.write_requests;
      m.read_requests += tm.read_requests;
    }
    m.start_us = mm.start_us;
    m.end_us = mm.end_us;
    m.latency_hist = drv->latency_histogram().delta_since(lat0);
    m.response_hist = drv->response_histogram().delta_since(resp0);
    m.verify_failures = drv->verify_failures() - fail0;
    m.ftl_stats = ssd->ftl().stats();
    m.device_erases = ssd->device().counters().erases;
    m.erases_during_run = m.device_erases - erases0;
  } else {
    TimedSource ts(*source, clock);
    m = drv->run(ts, spec.verify);
    clock.finish(now_ns());
  }
  timed->timing = false;
  out.measure_s = now_s() - t;
  out.write = timed->write_t;
  out.read = timed->read_t;
  out.other = timed->other_t;
  m.response_p99_us = m.response_hist.percentile(0.99);
  drv->close_health_epoch();

  core::RunResult& r = out.r;
  const ftl::FtlStats window = ftl::stats_delta(m.ftl_stats, before);
  m.ftl_stats = window;
  r.ftl_name = ssd->ftl().name();
  r.iops = m.iops();
  r.overall_waf = window.overall_waf(geo.page_bytes, geo.subpage_bytes());
  r.gc_invocations = window.gc_invocations;
  r.erases = m.erases_during_run;
  r.rmw_ops = window.rmw_ops;
  r.verify_failures = m.verify_failures;
  r.measure_wall_seconds = out.measure_s;
  r.mapping_bytes = ssd->ftl().mapping_memory_bytes();
  const SimTime elapsed = m.elapsed_us();
  const auto util = [elapsed](const std::vector<SimTime>& b0,
                              const auto& busy, double& lo, double& mean,
                              double& hi) {
    if (elapsed <= 0.0 || b0.empty()) return;
    double sum = 0.0;
    for (std::uint32_t c = 0; c < b0.size(); ++c) {
      const double u = (busy(c) - b0[c]) / elapsed;
      sum += u;
      if (c == 0 || u < lo) lo = u;
      if (c == 0 || u > hi) hi = u;
    }
    mean = sum / static_cast<double>(b0.size());
  };
  r.chips = geo.total_chips();
  r.channels = geo.channels;
  util(chip_before,
       [&](std::uint32_t c) { return ssd->device().chip_busy_us(c); },
       r.chip_util_min, r.chip_util_mean, r.chip_util_max);
  util(chan_before,
       [&](std::uint32_t c) { return ssd->device().channel_busy_us(c); },
       r.channel_util_min, r.channel_util_mean, r.channel_util_max);
  r.raw = std::move(m);
  if (mux) r.tenants = std::move(mm.tenants);

  t = now_s();
  obs.finish();
  // Sever the registry's references into device/FTL state (the Ssd
  // destructor does this only for facades attached through it).
  if (obs.tel) obs.tel->registry().materialize();
  mux.reset();
  drv.reset();
  timed.reset();
  ssd.reset();
  out.teardown_s = now_s() - t;
  out.end_s = now_s();
  out.sidecars = collect_sidecars(spec);
  out.gen = clock.gen;
  out.chunks = std::move(clock.chunks);
  return out;
}

}  // namespace

std::string kind_tag(FtlKind kind) {
  switch (kind) {
    case FtlKind::kCgm: return "cgm";
    case FtlKind::kFgm: return "fgm";
    case FtlKind::kSub: return "sub";
    case FtlKind::kSectorLog: return "sectorlog";
  }
  return "unknown";
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"steady_gc", &steady_gc},
      {"prod_scale", &prod_scale},
      {"observed_tenants", &observed_tenants},
      {"sharded_gc", &sharded_gc},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

CellRun run_untraced(const core::ExperimentSpec& spec) {
  CellRun out;
  const double t0 = now_s();
  out.r = core::run_experiment(spec);
  const double t1 = now_s();
  out.setup_s = out.r.measure_wall_start_s - t0;
  out.teardown_s = t1 - out.r.measure_wall_end_s;
  out.total_s = t1 - t0;
  out.sidecars = collect_sidecars(spec);
  out.digest = digest(out.r, out.sidecars);
  return out;
}

TracedCell run_traced(const core::ExperimentSpec& spec) {
  if (spec.shards <= 1) {
    TracedCell c = run_traced_leaf(spec);
    c.digest = digest(c.r, c.sidecars);
    return c;
  }
  // Sharded: the orchestrator's split and leaf specs, with every leaf run
  // as a traced cell on its own worker.
  TracedCell out;
  out.start_s = now_s();
  const core::ShardPlan plan = core::make_shard_plan(spec);
  workload::SyntheticWorkload generator(
      core::sharded_workload_params(spec, plan));
  const workload::ShardSplitter splitter(plan.shards, plan.stripe_pages,
                                         spec.ssd.geometry.subpages_per_page,
                                         plan.shard_sectors);
  std::vector<workload::ShardStream> streams =
      workload::partition_stream(generator, splitter, 0, spec.warmup_requests);
  out.split_s = now_s() - out.start_s;

  std::vector<core::ExperimentSpec> leaves;
  std::vector<workload::VectorSource> sources;
  leaves.reserve(plan.shards);
  sources.reserve(plan.shards);
  for (std::uint32_t i = 0; i < plan.shards; ++i) {
    leaves.push_back(core::make_shard_spec(spec, plan, i));
    leaves.back().warmup_requests = streams[i].warmup_requests;
    leaves.back().workload.request_count = streams[i].requests.size();
    sources.emplace_back(std::move(streams[i].requests));
  }
  for (std::uint32_t i = 0; i < plan.shards; ++i)
    leaves[i].stream = &sources[i];

  out.shards.resize(plan.shards);
  const double fork = now_s();
  core::run_tasks(spec.shard_jobs, plan.shards, [&](std::size_t i) {
    out.shards[i] = run_traced_leaf(leaves[i]);
    out.shards[i].digest = digest(out.shards[i].r, out.shards[i].sidecars);
  });
  out.fork_join_s = now_s() - fork;
  out.end_s = now_s();
  return out;
}

}  // namespace perfbench
