#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "nn/host_kernel_instances.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

uint64_t fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------ span log --

namespace {

thread_local uint32_t t_current_span = 0;

uint32_t thread_index() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t idx = next.fetch_add(1) + 1;
  return idx;
}

}  // namespace

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::add(const Rec& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back(r);
}

std::vector<SpanLog::Rec> SpanLog::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recs_;
}

size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recs_.size();
}

double SpanLog::span_cost_ns() {
  // Record a burst of empty spans and discard them again: the per-span
  // cost the traced timed phase pays on top of the untraced one.
  const bool was_on = enabled();
  enable(true);
  size_t before = size();
  constexpr int kN = 20000;
  const uint64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) {
    Span s("trace.calibrate");
  }
  const uint64_t t1 = now_ns();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    recs_.resize(before);
  }
  enable(was_on);
  return static_cast<double>(t1 - t0) / kN;
}

void SpanLog::print_summary() const {
  const std::vector<Rec> recs = records();
  // self time: subtract each span's duration from its parent's
  std::unordered_map<uint32_t, size_t> by_id;
  for (size_t i = 0; i < recs.size(); ++i) by_id[recs[i].id] = i;
  std::vector<double> self(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    self[i] += static_cast<double>(recs[i].t1 - recs[i].t0);
    const auto it = by_id.find(recs[i].parent);
    if (recs[i].parent != 0 && it != by_id.end()) {
      self[it->second] -= static_cast<double>(recs[i].t1 - recs[i].t0);
    }
  }
  struct Agg {
    uint64_t n = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Agg> agg;
  for (size_t i = 0; i < recs.size(); ++i) {
    Agg& a = agg[recs[i].name];
    ++a.n;
    a.total += static_cast<double>(recs[i].t1 - recs[i].t0);
    a.self += self[i];
  }
  std::printf("spans: %-28s %8s %12s %12s\n", "name", "count", "total_ms",
              "self_ms");
  for (const auto& [name, a] : agg) {
    std::printf("spans: %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(a.n), ns_to_ms(a.total),
                ns_to_ms(a.self));
  }
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const std::vector<Rec> recs = records();
  std::ofstream f(path);
  if (!f) return false;
  uint64_t base = UINT64_MAX;
  for (const Rec& r : recs) base = std::min(base, r.t0);
  f << "{\"traceEvents\":[";
  for (size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
      << ",\"ts\":" << static_cast<double>(r.t0 - base) / 1e3
      << ",\"dur\":" << static_cast<double>(r.t1 - r.t0) / 1e3
      << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
      << ",\"request\":" << r.request << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Span::Span(const char* name, uint64_t request) {
  SpanLog& log = SpanLog::get();
  if (!log.enabled()) return;
  on_ = true;
  rec_.name = name;
  rec_.request = request;
  rec_.id = log.next_id();
  rec_.parent = t_current_span;
  rec_.tid = thread_index();
  t_current_span = rec_.id;
  rec_.t0 = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.t1 = now_ns();
  t_current_span = rec_.parent;
  SpanLog::get().add(rec_);
}

// ------------------------------------------------------ host diagnostics --

HostProbe probe_host() {
  HostProbe p;
  {
    // streaming read: 64 MiB (beyond the private caches), 4 passes
    constexpr size_t kWords = (size_t{64} << 20) / sizeof(uint64_t);
    std::vector<uint64_t> buf(kWords, 1);
    volatile uint64_t sink = 0;
    uint64_t acc = 0;
    for (uint64_t w : buf) acc += w;  // touch every page first
    const uint64_t t0 = now_ns();
    for (int pass = 0; pass < 4; ++pass) {
      for (size_t i = 0; i < kWords; i += 8) acc += buf[i] ^ buf[i + 4];
    }
    const uint64_t t1 = now_ns();
    sink = acc;
    (void)sink;
    p.mem_gb_s = 4.0 * static_cast<double>(kWords * sizeof(uint64_t)) /
                 static_cast<double>(t1 - t0);
  }
  {
    volatile uint64_t sink = 0;
    uint64_t h = 1;
    const uint64_t t0 = now_ns();
    for (int i = 0; i < 20'000'000; ++i) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
    }
    const uint64_t t1 = now_ns();
    sink = h;
    (void)sink;
    p.alu_ms = ns_to_ms(static_cast<double>(t1 - t0));
  }
  return p;
}

std::string host_descriptor_json() {
  std::string cpu = "unknown";
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  std::string escaped;
  for (char c : cpu) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  std::ostringstream os;
  os << "{\"cpu\": \"" << escaped << "\", \"host_isa\": \""
     << decimate::host_isa_name(decimate::host_isa()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void set_deploy_layer_metrics(Outcome& out, const SetupSamples& s) {
  const DeployTimes& last = s.deploy;
  auto& L = out.layer;
  const double plans = static_cast<double>(last.plan_compile_s.size());
  L["models.build_s"] = {median(s.build_s), "s"};
  L["compiler.compile_ms"] = {mean(last.plan_compile_s) * 1e3, "ms"};
  L["compiler.plan_set_s"] = {median(s.compile_s), "s"};
  L["compiler.iss_measurements"] = {static_cast<double>(last.iss_measurements),
                                    "count"};
  out.exact["compiler.iss_measurements"] =
      static_cast<double>(last.iss_measurements);
  L["compiler.tile_cache_hit_frac"] = {
      static_cast<double>(last.cache_hits) /
          static_cast<double>(last.cache_hits + last.iss_measurements),
      "frac"};
  L["verify.plan_ms"] = {mean(last.plan_verify_s) * 1e3, "ms"};
  L["verify.findings"] = {static_cast<double>(last.verify_findings), "count"};
  L["artifact.publish_ms"] = {mean(last.plan_publish_s) * 1e3, "ms"};
  L["artifact.load_ms"] = {mean(last.plan_load_s) * 1e3, "ms"};
  L["artifact.plan_mb"] = {last.plan_bytes / 1e6 / plans, "MB"};
}

void set_trace_overhead(Outcome& out, size_t spans, double phase_ns,
                        int threads) {
  const double cost = SpanLog::get().span_cost_ns();
  out.layer["trace.overhead_frac"] = {
      static_cast<double>(spans) * cost / (phase_ns * threads), "frac"};
}

void set_e2e(Outcome& out, double setup_s, double p50_ms, double p99_ms,
             double throughput, double goodput, double slo_met,
             double mcyc_per_img, double coldstart_ms) {
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["latency_p50_ms"] = {p50_ms, "ms"};
  out.e2e["latency_p99_ms"] = {p99_ms, "ms"};
  out.e2e["throughput_per_s"] = {throughput, "1/s"};
  out.e2e["goodput_per_s"] = {goodput, "1/s"};
  out.e2e["slo_met_frac"] = {slo_met, "frac"};
  out.e2e["modeled_mcyc_per_img"] = {mcyc_per_img, "Mcyc"};
  out.e2e["coldstart_ms"] = {coldstart_ms, "ms"};
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

void closed_loop_serve_metrics(const std::vector<double>& exec_ms,
                               const std::vector<double>& form_ms,
                               const std::vector<double>& turnaround_ms,
                               const std::map<std::string, uint64_t>& modes,
                               int compiles_after_warm, Outcome& out) {
  auto& L = out.layer;
  // a closed loop has no queue: the only wait before the dispatcher is
  // the client forming its request
  L["serve.queue_wait_ms_p50"] = {quantile(form_ms, 0.5), "ms"};
  L["serve.queue_wait_ms_p99"] = {quantile(form_ms, 0.99), "ms"};
  L["serve.exec_ms_p50"] = {quantile(exec_ms, 0.5), "ms"};
  L["serve.exec_ms_p99"] = {quantile(exec_ms, 0.99), "ms"};
  L["serve.batch_size_mean"] = {1.0, "count"};
  uint64_t total = 0;
  for (const auto& [mode, n] : modes) total += n;
  for (const char* mode : {"batch_fused", "sharded_single", "data_parallel"}) {
    const auto it = modes.find(mode);
    const double n = it == modes.end() ? 0.0 : static_cast<double>(it->second);
    L[std::string("serve.mode_frac.") + mode] = {
        total ? n / static_cast<double>(total) : 0.0, "frac"};
  }
  L["serve.admit_frac"] = {1.0, "frac"};
  L["serve.reject_frac"] = {0.0, "frac"};
  L["serve.shed_frac"] = {0.0, "frac"};
  L["serve.miss_frac_served"] = {0.0, "frac"};
  // no wall-time prediction exists outside the wall-clock server
  for (const char* m : {"resnet18", "ffn"}) {
    L[std::string("serve.predict_ratio_p50.") + m] = {0.0, "ratio"};
    L[std::string("serve.predict_ratio_p99.") + m] = {0.0, "ratio"};
  }
  L["serve.compiles_after_warm"] = {static_cast<double>(compiles_after_warm),
                                    "count"};
  L["loadgen.late_ms_p99"] = {quantile(turnaround_ms, 0.99), "ms"};
}

}  // namespace perfbench
