#include <atomic>
#include <filesystem>
#include <thread>

#include "artifact/registry.hpp"
#include "bench.hpp"
#include "exec/engine.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace decimate;

namespace {

CompileOptions base_options(bool isa) {
  CompileOptions opt;
  opt.enable_isa = isa;
  return opt;
}

double seconds_since(uint64_t t0) {
  return ns_to_s(static_cast<double>(now_ns() - t0));
}

}  // namespace

Deployment cold_start(const std::vector<Graph>& graphs,
                      const std::vector<PlanSpec>& specs,
                      const std::string& dir, DeployTimes& t, Outcome& out) {
  bool uses[2] = {false, false};
  for (const PlanSpec& s : specs) uses[s.isa ? 1 : 0] = true;

  Deployment d;
  d.stores.resize(2);
  const uint64_t t0 = now_ns();
  for (int isa = 0; isa < 2; ++isa) {
    if (!uses[isa]) continue;
    // a fresh store with a fresh, empty latency cache: every plan and
    // every tile latency it needs must come from the registry
    d.stores[isa] = std::make_unique<PlanStore>(base_options(isa == 1));
    d.stores[isa]->attach_registry(dir);
    d.ids.clear();
    for (const Graph& g : graphs) d.ids.push_back(d.stores[isa]->add_model(g));
  }
  t.plan_load_s.clear();
  for (const PlanSpec& s : specs) {
    const uint64_t t1 = now_ns();
    {
      Span span("artifact.load");
      d.store(s.isa).plan(d.ids[static_cast<size_t>(s.model)], s.batch,
                          s.clusters);
    }
    t.plan_load_s.push_back(seconds_since(t1));
  }
  t.coldstart_s = seconds_since(t0);

  for (int isa = 0; isa < 2; ++isa) {
    if (!uses[isa]) continue;
    const PlanStore& st = *d.stores[isa];
    if (st.compiles() != 0) {
      out.violate("warm-registry cold start compiled " +
                  std::to_string(st.compiles()) + " plans");
    }
    if (st.shared_latencies()->misses() != 0) {
      out.violate("warm-registry cold start ran " +
                  std::to_string(st.shared_latencies()->misses()) +
                  " ISS measurements");
    }
  }
  return d;
}

Deployment deploy(const std::vector<Graph>& graphs,
                  const std::vector<PlanSpec>& specs, const std::string& dir,
                  DeployTimes& t, Outcome& out, bool publish) {
  if (publish) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  t.plan_compile_s.assign(specs.size(), 0.0);
  t.plan_verify_s.assign(specs.size(), 0.0);
  t.plan_publish_s.assign(specs.size(), 0.0);
  t.plan_cycles.assign(specs.size(), 0);

  // compile: one empty latency cache shared by the whole plan set, as a
  // PlanStore shares one across its compiles
  auto cache = std::make_shared<TileLatencyCache>();
  std::vector<CompiledPlan> plans;
  plans.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const PlanSpec& s = specs[i];
    CompileOptions opt = base_options(s.isa);
    opt.batch = s.batch;
    opt.num_clusters = s.clusters;
    const uint64_t t0 = now_ns();
    {
      Span span("compiler.compile");
      Compiler compiler(opt, cache);
      plans.push_back(compiler.compile(graphs[static_cast<size_t>(s.model)]));
    }
    t.plan_compile_s[i] = seconds_since(t0);
    t.compile_s += t.plan_compile_s[i];
    t.plan_cycles[i] = plans.back().total_cycles;
  }
  t.iss_measurements = cache->misses();
  t.cache_hits = cache->hits();

  for (size_t i = 0; i < plans.size(); ++i) {
    const uint64_t t0 = now_ns();
    VerifyReport report;
    {
      Span span("verify.plan");
      report = verify_plan(plans[i]);
    }
    t.plan_verify_s[i] = seconds_since(t0);
    t.verify_findings += static_cast<int>(report.findings.size());
  }
  if (t.verify_findings != 0) {
    out.violate("verify_plan reported " + std::to_string(t.verify_findings) +
                " findings");
  }

  if (publish) {
    PlanRegistry registry(dir);
    for (size_t i = 0; i < plans.size(); ++i) {
      const uint64_t t0 = now_ns();
      std::string path;
      {
        Span span("artifact.publish");
        path = registry.publish(plans[i]);
      }
      t.plan_publish_s[i] = seconds_since(t0);
      t.plan_bytes += static_cast<double>(fs::file_size(path));
    }
  }
  plans.clear();

  return cold_start(graphs, specs, dir, t, out);
}

std::vector<Tensor8> reference_outputs(
    const std::vector<const CompiledPlan*>& plans,
    const std::vector<const Tensor8*>& inputs, int threads) {
  std::vector<Tensor8> ref(plans.size());
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  const auto worker = [&] {
    try {
      ExecutionEngine engine;
      engine.set_use_host_kernels(false);
      engine.set_intra_image_threads(1);
      for (size_t i = next.fetch_add(1); i < plans.size();
           i = next.fetch_add(1)) {
        ref[i] = engine.run(*plans[i], *inputs[i]).output;
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return ref;
}

std::vector<Tensor8> make_inputs(const Graph& g, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor8> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(Tensor8::random(g.node(0).out_shape, rng));
  }
  return v;
}

}  // namespace perfbench
