#pragma once
// Shared pieces of the benchmark: run context and result, statistics,
// the benchmark's own span log, host diagnostics, the deploy pipeline
// every workload starts from, the reference-output oracle, and the
// traced per-layer sweep.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/graph.hpp"
#include "exec/compile.hpp"
#include "serve/plan_store.hpp"

namespace perfbench {

using decimate::CompiledPlan;
using decimate::CompileOptions;
using decimate::Graph;
using decimate::Tensor8;

// ---------------------------------------------------------------- clock --

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double ns_to_ms(double ns) { return ns * 1e-6; }
inline double ns_to_s(double ns) { return ns * 1e-9; }

// ----------------------------------------------------------- statistics --

/// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// FNV-1a over a byte range, for the request-trace and count digests.
uint64_t fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull);
template <typename T>
uint64_t fnv_mix(uint64_t h, const T& v) {
  return fnv1a(&v, sizeof(v), h);
}

// -------------------------------------------------------------- results --

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: request counts, metrics, and in `exact`
/// the values the determinism check compares bit for bit.
struct Outcome {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> exact;
  std::vector<std::string> violations;  // any entry makes the run fail
  uint64_t sent = 0, ok = 0, rejected = 0, shed = 0, failed = 0;
  uint64_t trace_digest = 0;

  void violate(const std::string& what) { violations.push_back(what); }
};

struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // private scratch directory of this run
};

// ------------------------------------------------------------ span log --

/// The benchmark's own spans around calls into each layer's public
/// functions. Disabled (one relaxed load per span) in untraced runs.
class SpanLog {
 public:
  struct Rec {
    const char* name;  // static string: "<layer>.<call>"
    uint64_t t0 = 0, t1 = 0;
    uint32_t id = 0, parent = 0;
    uint64_t request = 0;  // spans of one request share this id (0: none)
    uint32_t tid = 0;
  };

  static SpanLog& get();
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  uint32_t next_id() { return next_.fetch_add(1) + 1; }
  void add(const Rec& r);
  std::vector<Rec> records() const;
  size_t size() const;

  /// Measured cost of one recorded span (open + close), in ns.
  double span_cost_ns();

  /// Per-name count, total and self time (span minus the part its
  /// children on the same thread cover), printed as a table.
  void print_summary() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint32_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
};

class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog::Rec rec_{};
  bool on_ = false;
};

// ------------------------------------------------------ host diagnostics --

struct HostProbe {
  double mem_gb_s = 0.0;  // streaming read bandwidth over a 64 MiB buffer
  double alu_ms = 0.0;    // fixed integer multiply-add chain
};
HostProbe probe_host();
/// One-line JSON description of the host: CPU model, host ISA tier,
/// nproc, build type.
std::string host_descriptor_json();
double peak_rss_mb();

// ------------------------------------------------------ deploy pipeline --

/// One plan identity of a workload: which registered model, at which
/// fused batch size and cluster count, compiled with which base options.
struct PlanSpec {
  int model = 0;  // index into the workload's graph list
  int batch = 1;
  int clusters = 1;
  bool isa = false;  // xDecimate (CompileOptions::enable_isa)
};

/// Timings and counts of one fresh deploy: Compiler -> verify_plan ->
/// PlanRegistry::publish -> cold-started PlanStore.
struct DeployTimes {
  double compile_s = 0, coldstart_s = 0;
  std::vector<double> plan_compile_s;  // per spec, in spec order
  std::vector<double> plan_verify_s;
  std::vector<double> plan_publish_s;
  std::vector<double> plan_load_s;  // cold start: PlanStore::plan per spec
  uint64_t iss_measurements = 0;  // TileLatencyCache misses while compiling
  uint64_t cache_hits = 0;
  int verify_findings = 0;
  double plan_bytes = 0;  // total artifact bytes published
  std::vector<uint64_t> plan_cycles;  // CompiledPlan::total_cycles per spec
};

/// A directory removed (with its contents) when the holder is destroyed.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A deployed workload: the cold-started stores serving it (one per base
/// option set) and the graph -> store model ids.
struct Deployment {
  std::vector<std::unique_ptr<decimate::PlanStore>> stores;  // [isa]
  std::vector<int> ids;  // model id in the store, per graph
  decimate::PlanStore& store(bool isa = false) { return *stores[isa ? 1 : 0]; }
};

/// Compile `specs` from an empty latency cache, verify and publish each
/// plan into a fresh registry under `dir` (or, without `publish`, reuse
/// the registry already there), then cold-start fresh PlanStores over it
/// and admit every spec. Records violations when the verifier finds
/// anything or the cold start compiles or touches the ISS.
Deployment deploy(const std::vector<Graph>& graphs,
                  const std::vector<PlanSpec>& specs, const std::string& dir,
                  DeployTimes& t, Outcome& out, bool publish = true);

/// Cold-start fresh PlanStores over an existing registry directory and
/// admit every spec (fills t.coldstart_s and t.plan_load_s).
Deployment cold_start(const std::vector<Graph>& graphs,
                      const std::vector<PlanSpec>& specs,
                      const std::string& dir, DeployTimes& t, Outcome& out);

// --------------------------------------------------------------- oracle --

/// Reference outputs on the scalar reference-ops engine
/// (set_use_host_kernels(false)), computed on up to `threads` threads.
/// Job i runs plans[i] on inputs[i].
std::vector<Tensor8> reference_outputs(
    const std::vector<const CompiledPlan*>& plans,
    const std::vector<const Tensor8*>& inputs, int threads);

/// Seeded input pool: `n` random inputs for a graph.
std::vector<Tensor8> make_inputs(const Graph& g, int n, uint64_t seed);

// ------------------------------------------------------------ the sweep --

/// Traced-run layer sweep, identical on every workload: per-PlanStep
/// replay of ResNet18 dense/1:4/1:8/1:16 and the FFN block at 1:8
/// (exec.*, nn.*), fused-batch and sharded runs (exec.run_batch_*,
/// shard.*), and the modeled cycles of the paper's 16-plan matrix
/// (compiler.mcyc.*), and the serving overhead of Dispatcher::dispatch
/// over ExecutionEngine::run (serve.overhead_ms). Fills out.layer and
/// out.exact.
void layer_sweep(uint64_t seed, Outcome& out);

// ------------------------------------------------------------ workloads --

void run_cnn_closed(const RunContext& ctx, Outcome& out);
void run_mixed_overload(const RunContext& ctx, Outcome& out);
void run_paper_deploy(const RunContext& ctx, Outcome& out);

/// Fill the serve.* / loadgen.* layer metrics a closed loop defines (no
/// queue, no admission, no wall-time prediction): `exec_ms` are the
/// client-observed dispatch times, `form_ms` the time from a client
/// deciding to send to entering the dispatcher, `turnaround_ms` the gaps
/// between a reply and the client's next send.
void closed_loop_serve_metrics(const std::vector<double>& exec_ms,
                               const std::vector<double>& form_ms,
                               const std::vector<double>& turnaround_ms,
                               const std::map<std::string, uint64_t>& modes,
                               int compiles_after_warm, Outcome& out);

/// Timings of a workload's fresh set-ups. kSetupsBefore run before the
/// timed phase (the last of them serves it) and kSetupsAfter after it, so
/// the medians sample the host at both ends of the run.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 2;
struct SetupSamples {
  std::vector<double> setup_s, build_s, compile_s, coldstart_s;
  DeployTimes deploy;  // the latest set-up's deploy

  void add(double setup, double build, const DeployTimes& t) {
    setup_s.push_back(setup);
    build_s.push_back(build);
    compile_s.push_back(t.compile_s);
    coldstart_s.push_back(t.coldstart_s);
    deploy = t;
  }
};

/// The models.*, compiler.*, verify.* and artifact.* layer metrics of a
/// workload's set-ups.
void set_deploy_layer_metrics(Outcome& out, const SetupSamples& s);

/// trace.overhead_frac: the measured cost of the spans recorded during a
/// timed phase, as a share of the busy time of the threads recording them.
void set_trace_overhead(Outcome& out, size_t spans, double phase_ns,
                        int threads);

/// The end-to-end metrics every workload reports.
void set_e2e(Outcome& out, double setup_s, double p50_ms, double p99_ms,
             double throughput, double goodput, double slo_met,
             double mcyc_per_img, double coldstart_ms);

}  // namespace perfbench
