// Digest, clocks, order statistics, JSON helpers and host provenance.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/build_info.h"

namespace perfbench {
namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void hist(const esp::util::Histogram& h) {
    u64(h.total());
    u64(h.underflow());
    u64(h.overflow());
    for (std::size_t i = 0; i < h.bucket_count(); ++i) u64(h.bucket(i));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t digest(const esp::core::RunResult& r, const Sidecars& s) {
  Fnv f;
  const esp::sim::RunMetrics& m = r.raw;
  for (std::uint64_t v : {m.requests, m.write_requests, m.read_requests,
                          m.verify_failures, m.io_errors, m.device_erases,
                          m.erases_during_run, r.gc_invocations, r.erases,
                          r.rmw_ops, r.mapping_bytes})
    f.u64(v);
  f.f64(m.start_us);
  f.f64(m.end_us);
  // Every simulated FtlStats counter; the host-time maint_* fields vary
  // run to run and stay out.
  const esp::ftl::FtlStats& st = m.ftl_stats;
  for (std::uint64_t v :
       {st.host_write_requests, st.host_read_requests, st.host_write_sectors,
        st.host_read_sectors, st.flash_prog_full, st.flash_prog_sub,
        st.flash_reads, st.flash_erases, st.rmw_ops, st.gc_invocations,
        st.gc_copy_sectors, st.forward_migrations, st.cold_evictions,
        st.retention_evictions, st.wear_level_relocations, st.buffer_hits,
        st.read_failures, st.small_write_requests, st.small_write_bytes,
        st.small_service_flash_bytes, st.small_extra_flash_bytes,
        st.maint_retention_calls, st.maint_wear_level_calls,
        st.maint_release_idle_calls})
    f.u64(v);
  f.hist(m.latency_hist);
  f.hist(m.response_hist);
  for (double v : {r.chip_util_min, r.chip_util_mean, r.chip_util_max,
                   r.channel_util_min, r.channel_util_mean,
                   r.channel_util_max})
    f.f64(v);
  for (const esp::sim::TenantMetrics& t : r.tenants) {
    f.u64(t.requests);
    f.u64(t.write_requests);
    f.u64(t.read_requests);
    f.hist(t.response_hist);
  }
  f.u64(s.journal);
  f.u64(s.health);
  f.u64(s.forensics);
  return f.value();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_mib() {
  std::ifstream is("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(is >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct CpuRotation::State {
  pid_t tid = 0;
  cpu_set_t mask{};
  std::vector<int> cpus;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread mover;
};

CpuRotation::CpuRotation(int period_ms) : state_(new State) {
  State& s = *state_;
  s.tid = gettid();
  if (sched_getaffinity(0, sizeof s.mask, &s.mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &s.mask)) s.cpus.push_back(c);
  if (s.cpus.size() < 2) return;
  s.mover = std::thread([&s, period_ms] {
    std::unique_lock<std::mutex> lock(s.mu);
    for (std::size_t i = 0;
         !s.cv.wait_for(lock, std::chrono::milliseconds(period_ms),
                        [&s] { return s.stop; });
         ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(s.cpus[i % s.cpus.size()], &one);
      sched_setaffinity(s.tid, sizeof one, &one);
    }
  });
}

CpuRotation::~CpuRotation() {
  State& s = *state_;
  if (s.mover.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      s.stop = true;
    }
    s.cv.notify_one();
    s.mover.join();
    sched_setaffinity(s.tid, sizeof s.mask, &s.mask);
  }
  delete state_;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string provenance_json(std::uint64_t seed) {
  std::string cpu = "unknown";
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  std::ostringstream os;
  os << "{\"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_str(cpu)
     << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"march\": " << json_str(PERFBENCH_MARCH)
     << ", \"build_info\": " << json_str(esp::core::build_info_line())
     << ", \"seed\": " << seed << "}}";
  return os.str();
}

}  // namespace perfbench
