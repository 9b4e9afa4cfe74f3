// paper-deploy: the paper's deploy matrix, offline.
//
// ResNet18 and ViT-S/16 at dense/1:4/1:8/1:16, each compiled for the
// software kernels and for xDecimate: 16 plans. Each timed round compiles
// the whole matrix from an empty latency cache, verifies every plan,
// publishes it into an empty registry (first round only) and cold-starts
// fresh PlanStores over the registry, asserting zero compiles and zero
// ISS measurements. A seeded image per model is then served through
// Dispatcher::dispatch on both of its plans and checked against the
// reference ops. The compiler, the ISS, the verifier and the artifact
// layer do almost all the work; the host kernels do little. The request
// unit of this workload is one plan deployment: its compile and verify.

#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "serve/dispatcher.hpp"
#include "workload_models.hpp"

namespace perfbench {

using namespace decimate;

namespace {

constexpr int kCheckImages = 1;  // seeded check image per model and plan
// deploy rounds per run, at least: a fixed share of the first (cold,
// publishing) round keeps the per-round medians comparable across runs
constexpr int kMinRounds = 3;

}  // namespace

void run_paper_deploy(const RunContext& ctx, Outcome& out) {
  const std::vector<ModelSpec> models = paper_matrix_models();
  const int n_models = static_cast<int>(models.size());
  std::vector<PlanSpec> specs;
  for (const bool isa : {false, true}) {
    for (int m = 0; m < n_models; ++m) specs.push_back({m, 1, 1, isa});
  }

  // --- set-up: the deploy input is the model graphs ------------------------
  SetupSamples samples;
  const auto build_graphs = [&] {
    std::vector<Graph> g;
    const uint64_t t0 = now_ns();
    {
      Span span("models.build");
      for (const ModelSpec& ms : models) g.push_back(ms.build());
    }
    const double s = ns_to_s(static_cast<double>(now_ns() - t0));
    samples.setup_s.push_back(s);
    samples.build_s.push_back(s);
    return g;
  };
  std::vector<Graph> graphs;
  for (int k = 0; k < kSetupsBefore; ++k) {
    graphs.clear();
    graphs = build_graphs();
  }

  // --- timed phase: deploy rounds -------------------------------------------
  const size_t spans_before = SpanLog::get().size();
  const std::string dir = ctx.work_dir + "/registry";
  std::vector<double> coldstart_s;
  std::vector<std::vector<double>> deploy_ms(specs.size());  // per plan
  double deploy_total_s = 0;
  DeployTimes first;
  Deployment dep;
  const uint64_t start = now_ns();
  const uint64_t stop = start + static_cast<uint64_t>(ctx.seconds * 1e9);
  for (int round = 0; round < kMinRounds || now_ns() < stop; ++round) {
    dep = Deployment{};
    DeployTimes t;
    // later rounds rerun the pipeline into the warm registry without
    // republishing: the artifact bytes are a pure function of the plan
    dep = deploy(graphs, specs, dir, t, out, /*publish=*/round == 0);
    if (round == 0) first = t;
    if (t.plan_cycles != first.plan_cycles) {
      out.violate("recompiled plans changed their modeled cycles");
    }
    samples.compile_s.push_back(t.compile_s);
    coldstart_s.push_back(t.coldstart_s);
    for (size_t i = 0; i < specs.size(); ++i) {
      const double s = t.plan_compile_s[i] + t.plan_verify_s[i];
      deploy_ms[i].push_back(s * 1e3);
      deploy_total_s += s;
      ++out.sent;
      ++out.ok;
    }
  }
  const size_t spans = SpanLog::get().size() - spans_before;
  const double phase_ns = static_cast<double>(now_ns() - start);

  // --- check: seeded images per plan against the reference ops -------------
  std::vector<Tensor8> inputs;  // kCheckImages per model
  for (int m = 0; m < n_models; ++m) {
    for (Tensor8& x : make_inputs(graphs[static_cast<size_t>(m)], kCheckImages,
                                  ctx.seed * 139 + static_cast<uint64_t>(m))) {
      inputs.push_back(std::move(x));
    }
  }
  std::vector<Tensor8> expect;
  {
    std::vector<const CompiledPlan*> plans;
    std::vector<const Tensor8*> ins;
    for (size_t i = 0; i < inputs.size(); ++i) {
      plans.push_back(&dep.store(false).plan(
          dep.ids[i / kCheckImages], 1, 1));
      ins.push_back(&inputs[i]);
    }
    expect = reference_outputs(plans, ins, 4);
  }
  uint64_t digest = fnv1a("paper-deploy", 12);
  for (const Tensor8& x : inputs) {
    digest = fnv1a(x.data(), static_cast<size_t>(x.numel()), digest);
  }
  out.trace_digest = digest;

  // one client per store (SW, xDecimate), each with its own Dispatcher
  struct CheckLog {
    std::vector<double> exec_ms, form_ms, turnaround_ms;
    std::map<std::string, uint64_t> modes;
    uint64_t mismatched = 0;
    double cycles = 0;
    std::string error;
  };
  CheckLog logs[2];
  int compiles_before = dep.store(false).compiles() + dep.store(true).compiles();
  {
    std::vector<std::thread> threads;
    for (int isa = 0; isa < 2; ++isa) {
      threads.emplace_back([&, isa] {
        CheckLog& log = logs[isa];
        try {
          DispatchConfig dcfg;
          dcfg.fused_batches = {1};
          Dispatcher disp(dep.store(isa == 1), dcfg);
          for (int id : dep.ids) disp.warm(id);
          SloConfig slo;
          uint64_t last_reply = 0;
          for (size_t i = 0; i < inputs.size(); ++i) {
            const uint64_t t_loop = now_ns();
            if (last_reply) {
              log.turnaround_ms.push_back(
                  ns_to_ms(static_cast<double>(t_loop - last_reply)));
            }
            const int m = static_cast<int>(i / kCheckImages);
            FormedBatch batch;
            batch.model = dep.ids[static_cast<size_t>(m)];
            Request r;
            r.id = i;
            r.model = batch.model;
            r.input = inputs[i];
            batch.requests.push_back(std::move(r));
            const uint64_t t_send = now_ns();
            DispatchResult res = disp.dispatch(std::move(batch), slo);
            last_reply = now_ns();
            log.form_ms.push_back(
                ns_to_ms(static_cast<double>(t_send - t_loop)));
            log.exec_ms.push_back(
                ns_to_ms(static_cast<double>(last_reply - t_send)));
            ++log.modes[to_string(res.mode)];
            log.cycles += static_cast<double>(res.served.at(0).stats.exec_cycles());
            if (!(res.served[0].output == expect[i])) ++log.mismatched;
          }
        } catch (const std::exception& e) {
          log.error = e.what();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const int compiles_after_warm =
      dep.store(false).compiles() + dep.store(true).compiles() - compiles_before;
  double cycles = 0;
  uint64_t served = 0;
  for (const CheckLog& log : logs) {
    const uint64_t n = log.exec_ms.size();
    out.sent += n;
    out.ok += n - log.mismatched;
    out.failed += log.mismatched;
    if (!log.error.empty()) {
      ++out.sent;
      ++out.failed;
      out.violate("check dispatch failed: " + log.error);
    }
    cycles += log.cycles;
    served += n;
  }
  if (out.failed != 0) {
    out.violate("check images failed or mismatched the oracle");
  }
  if (compiles_after_warm != 0) out.violate("compiles after warm-up");

  // --- metrics ----------------------------------------------------------------
  // a plan's deploy latency is its median over the rounds
  std::vector<double> plan_ms;
  for (const std::vector<double>& v : deploy_ms) plan_ms.push_back(median(v));
  const double throughput = static_cast<double>(
      deploy_ms.size() * deploy_ms.front().size()) / deploy_total_s;
  const double mcyc = served ? cycles / static_cast<double>(served) / 1e6 : 0.0;
  for (int k = 0; k < kSetupsAfter; ++k) build_graphs();
  set_e2e(out, median(samples.setup_s), quantile(plan_ms, 0.5),
          quantile(plan_ms, 0.99), throughput, throughput, 1.0, mcyc,
          median(coldstart_s) * 1e3);
  out.exact["modeled_mcyc_per_img"] = mcyc;
  for (size_t i = 0; i < specs.size(); ++i) {
    out.exact["compiler.mcyc." + models[static_cast<size_t>(specs[i].model)].name +
              (specs[i].isa ? ".xdec" : ".sw")] =
        static_cast<double>(first.plan_cycles[i]) / 1e6;
  }
  samples.deploy = first;
  set_deploy_layer_metrics(out, samples);

  if (ctx.trace) {
    set_trace_overhead(out, spans, phase_ns, 1);
    layer_sweep(ctx.seed, out);
    std::vector<double> exec, form, turn;
    std::map<std::string, uint64_t> modes;
    for (const CheckLog& log : logs) {
      exec.insert(exec.end(), log.exec_ms.begin(), log.exec_ms.end());
      form.insert(form.end(), log.form_ms.begin(), log.form_ms.end());
      turn.insert(turn.end(), log.turnaround_ms.begin(), log.turnaround_ms.end());
      for (const auto& [mode, n] : log.modes) modes[mode] += n;
    }
    closed_loop_serve_metrics(exec, form, turn, modes,
                              compiles_after_warm, out);
  }
  dep = Deployment{};
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
