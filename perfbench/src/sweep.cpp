// Traced-run layer sweep (see bench.hpp). Identical on every workload,
// so the per-layer host-kernel numbers of two workloads' traced runs are
// directly comparable.

#include <cstdio>

#include "bench.hpp"
#include "exec/engine.hpp"
#include "exec/node_exec.hpp"
#include "models/models.hpp"
#include "nn/host_kernel_instances.hpp"
#include "serve/dispatcher.hpp"
#include "shard/multi_cluster_engine.hpp"
#include "workload_models.hpp"

namespace perfbench {

using namespace decimate;

namespace {

constexpr int kReps = 5;  // timed repetitions per measurement (median)

bool is_gemm(OpType op) {
  return op == OpType::kConv2d || op == OpType::kFc || op == OpType::kMatmul;
}

const char* family_of(HostImpl impl) {
  switch (impl) {
    case HostImpl::kDenseConv: return "conv-dense";
    case HostImpl::kSparseConv: return "conv-nm";
    case HostImpl::kDenseFc: return "fc-dense";
    case HostImpl::kSparseFc: return "fc-nm";
    case HostImpl::kRefFallback: break;
  }
  return "ref";
}

bool scalar_instance(const HostKernelDispatch& d) {
  return d.instance < 0 ||
         host_instance_info(d.instance).isa == HostIsa::kScalar;
}

/// One replayed step: the per-layer row of the aim-1 table.
struct StepRow {
  std::string op, instance, family;
  int64_t macs = 0;
  uint64_t cycles = 0;
  double host_ns = 0;
  bool gemm = false, scalar = false;
};

/// Replay a plan step by step through the functions ExecutionEngine::run
/// calls, kReps times; per-step host time is the median. Returns false
/// when the replayed output differs from `expect`.
bool replay(const CompiledPlan& plan, const Tensor8& input,
            const Tensor8& expect, std::vector<StepRow>& rows) {
  const Graph& graph = *plan.graph;
  std::vector<std::vector<double>> ns(plan.steps.size());
  bool same = true;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<Tensor8> outputs(static_cast<size_t>(graph.size()));
    std::vector<const Tensor8*> values(static_cast<size_t>(graph.size()));
    values[0] = &input;
    for (size_t si = 0; si < plan.steps.size(); ++si) {
      const PlanStep& step = plan.steps[si];
      const Node& node = graph.node(step.node_id);
      Tensor8& out = outputs[static_cast<size_t>(step.node_id)];
      const Tensor8& in0 = *values[static_cast<size_t>(node.inputs.at(0))];
      const uint64_t t0 = now_ns();
      if (is_gemm(node.op)) {
        Span span("nn.gemm");
        const Tensor8* b = node.op == OpType::kMatmul
                               ? values[static_cast<size_t>(node.inputs.at(1))]
                               : nullptr;
        exec_gemm_node_host(step, node, in0, b, true, out);
      } else {
        Span span("nn.vec");
        std::vector<const Tensor8*> ins;
        for (int i : node.inputs) ins.push_back(values[static_cast<size_t>(i)]);
        exec_vec_node_ref(node, ins, out);
      }
      ns[si].push_back(static_cast<double>(now_ns() - t0));
      values[static_cast<size_t>(step.node_id)] = &out;
    }
    same = same && outputs.back() == expect;
  }
  rows.clear();
  for (size_t si = 0; si < plan.steps.size(); ++si) {
    const PlanStep& step = plan.steps[si];
    const Node& node = graph.node(step.node_id);
    StepRow r;
    r.op = node.name;
    r.gemm = is_gemm(node.op);
    r.instance = r.gemm ? host_instance_name(step.host) : "vec-ref";
    r.family = r.gemm ? family_of(step.host.impl) : "vec";
    r.scalar = r.gemm && scalar_instance(step.host);
    r.macs = step.report.macs;
    r.cycles = step.report.total_cycles;
    r.host_ns = median(ns[si]);
    rows.push_back(r);
  }
  return same;
}

template <typename F>
double median_ms(F&& f) {
  std::vector<double> v;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t t0 = now_ns();
    f();
    v.push_back(ns_to_ms(static_cast<double>(now_ns() - t0)));
  }
  return median(v);
}

}  // namespace

void layer_sweep(uint64_t seed, Outcome& out) {
  std::map<std::string, double> exec_run_ms;
  auto& L = out.layer;

  // --- compiler: modeled cycles of the paper's 16-plan matrix -----------
  {
    auto cache = std::make_shared<TileLatencyCache>();
    for (const ModelSpec& ms : paper_matrix_models()) {
      const Graph g = ms.build();
      for (const bool isa : {false, true}) {
        CompileOptions opt;
        opt.enable_isa = isa;
        const CompiledPlan plan = Compiler(opt, cache).compile(g);
        const std::string name = "compiler.mcyc." + ms.name + "." +
                                 (isa ? "xdec" : "sw");
        const double mcyc = static_cast<double>(plan.total_cycles) / 1e6;
        L[name] = {mcyc, "Mcyc"};
        out.exact[name] = mcyc;
      }
    }
  }

  // --- exec / nn: per-PlanStep replay ------------------------------------
  std::vector<ModelSpec> replayed = resnet18_models();
  replayed.push_back(ffn_model());
  PlanStore store;
  std::vector<Graph> graphs;
  for (const ModelSpec& ms : replayed) graphs.push_back(ms.build());
  std::vector<int> ids;
  for (const Graph& g : graphs) ids.push_back(store.add_model(g));

  struct FamilyAgg {
    double ns = 0;
    int64_t macs = 0;
  };
  std::map<std::string, FamilyAgg> fam;
  double all_ns = 0;
  ExecutionEngine engine;
  std::printf("layers: %-9s %-20s %-22s %12s %10s %12s %9s %7s %6s\n",
              "model", "op", "instance", "macs", "mcyc", "host_ns", "ns/mac",
              "share", "scalar");
  for (size_t mi = 0; mi < replayed.size(); ++mi) {
    const ModelSpec& ms = replayed[mi];
    const CompiledPlan& plan = store.plan(ids[mi], 1, 1);
    const Tensor8 input =
        make_inputs(graphs[mi], 1, seed ^ (0x5eed0000ull + mi)).front();
    Tensor8 full;
    const double run_ms = median_ms([&] {
      Span span("exec.run");
      full = engine.run(plan, input).output;
    });
    exec_run_ms[ms.name] = run_ms;
    L["exec.run_ms." + ms.name] = {run_ms, "ms"};

    std::vector<StepRow> rows;
    if (!replay(plan, input, full, rows)) {
      out.violate("per-step replay of " + ms.name +
                  " differs from ExecutionEngine::run");
    }
    double img_ns = 0, vec_ns = 0;
    int64_t gemm_macs = 0, scalar_macs = 0;
    for (const StepRow& r : rows) img_ns += r.host_ns;
    for (const StepRow& r : rows) {
      std::printf("layers: %-9s %-20s %-22s %12lld %10.4f %12.0f %9.4f %7.4f %6s\n",
                  ms.name.c_str(), r.op.c_str(), r.instance.c_str(),
                  static_cast<long long>(r.macs),
                  static_cast<double>(r.cycles) / 1e6, r.host_ns,
                  r.macs ? r.host_ns / static_cast<double>(r.macs) : 0.0,
                  r.host_ns / img_ns, r.scalar ? "yes" : "no");
      fam[r.family].ns += r.host_ns;
      fam[r.family].macs += r.macs;
      all_ns += r.host_ns;
      if (r.gemm) {
        gemm_macs += r.macs;
        if (r.scalar) scalar_macs += r.macs;
      } else {
        vec_ns += r.host_ns;
      }
    }
    const double frac = gemm_macs ? static_cast<double>(scalar_macs) /
                                        static_cast<double>(gemm_macs)
                                  : 0.0;
    L["nn.scalar_mac_frac." + ms.name] = {frac, "frac"};
    out.exact["nn.scalar_mac_frac." + ms.name] = frac;
    if (ms.name == "resnet18.m8") {
      L["nn.vec_ms_per_img." + ms.family] = {ns_to_ms(vec_ns), "ms"};
    }
  }
  for (const char* f : {"conv-dense", "conv-nm", "fc-dense", "fc-nm"}) {
    const FamilyAgg& a = fam[f];
    L[std::string("nn.") + f + ".ns_per_mac"] = {
        a.macs ? a.ns / static_cast<double>(a.macs) : 0.0, "ns"};
    L[std::string("nn.") + f + ".time_share"] = {all_ns ? a.ns / all_ns : 0.0,
                                                 "frac"};
  }

  // --- exec batch and shard: the 1:8 ResNet18 and FFN --------------------
  MultiClusterEngine mce(2);
  for (size_t mi = 0; mi < replayed.size(); ++mi) {
    const ModelSpec& ms = replayed[mi];
    if (ms.m != 8) continue;
    const std::vector<Tensor8> inputs =
        make_inputs(graphs[mi], 4, seed ^ (0xba7c0000ull + mi));
    const CompiledPlan& single = store.plan(ids[mi], 1, 1);
    const CompiledPlan& fused = store.plan(ids[mi], 4, 1);
    const CompiledPlan& sharded = store.plan(ids[mi], 1, 2);
    BatchRun batch;
    const double batch_ms = median_ms([&] {
      Span span("exec.run_batch");
      batch = engine.run_batch(fused, inputs);
    });
    Tensor8 shard_out;
    mce.shard_plan(sharded);
    const double shard_ms = median_ms([&] {
      Span span("shard.run");
      shard_out = mce.run(sharded, inputs[0]).run.output;
    });
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!(batch.runs[i].output == engine.run(single, inputs[i]).output)) {
        out.violate("run_batch output differs for " + ms.name);
      }
    }
    if (!(shard_out == engine.run(single, inputs[0]).output)) {
      out.violate("sharded output differs for " + ms.name);
    }
    L["exec.run_batch_ms_per_img." + ms.family] = {batch_ms / 4.0, "ms"};
    L["shard.run_ms." + ms.family] = {shard_ms, "ms"};
    L["shard.vs_exec_ratio." + ms.family] = {
        shard_ms / exec_run_ms[ms.name], "ratio"};

    if (ms.family != "ffn") continue;
    // serving overhead: one-request Dispatcher::dispatch against
    // ExecutionEngine::run of the same plan and input, in interleaved
    // pairs (the short FFN keeps the pair difference above the noise)
    DispatchConfig dcfg;
    dcfg.fused_batches = {1};
    Dispatcher disp(store, dcfg);
    disp.warm(ids[mi]);
    std::vector<double> overhead_ms;
    for (int rep = 0; rep < 4 * kReps; ++rep) {
      uint64_t t0 = now_ns();
      engine.run(single, inputs[0]);
      const uint64_t run_ns = now_ns() - t0;
      FormedBatch request;
      request.model = ids[mi];
      request.requests.emplace_back();
      request.requests.back().model = ids[mi];
      request.requests.back().input = inputs[0];
      t0 = now_ns();
      {
        Span span("serve.dispatch");
        disp.dispatch(std::move(request), SloConfig{});
      }
      overhead_ms.push_back(
          ns_to_ms(static_cast<double>(now_ns() - t0) -
                   static_cast<double>(run_ns)));
    }
    L["serve.overhead_ms"] = {median(overhead_ms), "ms"};
  }
}

}  // namespace perfbench
