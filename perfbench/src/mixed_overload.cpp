// mixed-overload: an open loop over WallClockServer at a fixed rate above
// this mix's capacity.
//
// One generator thread sends seeded Poisson arrivals at kOfferedPerS, a
// constant about 1.5x the measured capacity of the mix (it is never
// derived in-run from WallClockServer::sustained_img_per_s). The mix is
// ResNet18 1:8 and the ViT FFN block at 1:8 with fixed per-model
// deadlines. Admission control, EDF shedding, batching and the choice
// between fused, data-parallel and sharded execution only act once a
// queue builds, and the FFN requests make the FC kernels carry most of
// the nn work. Latency runs from each request's scheduled send time.

#include <cmath>
#include <thread>

#include "bench.hpp"
#include "serve/wallclock.hpp"
#include "workload_models.hpp"

namespace perfbench {

using namespace decimate;

namespace {

constexpr int kPool = 8;              // distinct seeded inputs per model
// requests/s offered (both models): 1.5x the peak goodput (~65/s) of
// this mix measured in a rate sweep on a 4-core AVX-512 Xeon
constexpr double kOfferedPerS = 100;
constexpr double kFfnShare = 0.9;     // share of requests for the FFN block
// per-model deadlines from the scheduled send time: [resnet18, ffn]
constexpr uint64_t kDeadlineNs[2] = {400'000'000, 100'000'000};

struct Arrival {
  uint64_t t_ns = 0;  // scheduled send time from the start of the schedule
  int model = 0;      // 0 = ResNet18 1:8, 1 = FFN block
  int input = 0;
};

std::vector<Arrival> schedule(uint64_t seed, double seconds) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x0be4ull);
  std::vector<Arrival> v;
  const double mean_gap_ns = 1e9 / kOfferedPerS;
  double t = 0;
  for (;;) {
    t += -mean_gap_ns * std::log1p(-rng.uniform());
    if (t >= seconds * 1e9) break;
    Arrival a;
    a.t_ns = static_cast<uint64_t>(t);
    a.model = rng.uniform() < kFfnShare ? 1 : 0;
    a.input = rng.uniform_int(0, kPool - 1);
    v.push_back(a);
  }
  return v;
}

}  // namespace

void run_mixed_overload(const RunContext& ctx, Outcome& out) {
  const std::vector<ModelSpec> models = {resnet18_model(8), ffn_model()};
  std::vector<PlanSpec> specs;
  DispatchConfig dcfg;
  dcfg.num_clusters = 2;
  dcfg.fused_batches = {1, 2, 4};
  for (int m = 0; m < 2; ++m) {
    for (int b : dcfg.fused_batches) specs.push_back({m, b, 1, false});
    specs.push_back({m, 1, dcfg.num_clusters, false});
  }
  WallClockConfig wcfg;
  wcfg.max_batch = 4;
  // one executor: with its run_batch worker pool it already occupies
  // every core, and the generator thread mostly sleeps
  wcfg.executors = 1;
  // nothing is injected, so only a real hang should trip the watchdog;
  // a mispredicted (not stalled) batch must not be abandoned
  wcfg.watchdog_floor_ns = 2'000'000'000;

  // --- set-up, from fresh state each time ---------------------------------
  struct Serving {
    std::unique_ptr<ScratchDir> dir;  // outlives the stores mapping it
    std::vector<Graph> graphs;
    Deployment dep;
    std::unique_ptr<WallClockServer> server;  // stops before dep goes
  };
  SetupSamples samples;
  const auto set_up = [&](int k) {
    auto s = std::make_unique<Serving>();
    s->dir = std::make_unique<ScratchDir>(ctx.work_dir + "/registry" +
                                          std::to_string(k));
    const uint64_t t0 = now_ns();
    {
      Span span("models.build");
      for (const ModelSpec& ms : models) s->graphs.push_back(ms.build());
    }
    const double build_s = ns_to_s(static_cast<double>(now_ns() - t0));
    DeployTimes t;
    s->dep = deploy(s->graphs, specs, s->dir->path(), t, out);
    s->server = std::make_unique<WallClockServer>(s->dep.store(), dcfg, wcfg);
    for (int id : s->dep.ids) s->server->warm(id);
    samples.add(ns_to_s(static_cast<double>(now_ns() - t0)), build_s, t);
    return s;
  };
  std::unique_ptr<Serving> live;
  for (int k = 0; k < kSetupsBefore; ++k) {
    live.reset();
    live = set_up(k);
  }
  const std::vector<Graph>& graphs = live->graphs;
  Deployment& dep = live->dep;
  WallClockServer* server = live->server.get();
  PlanStore& store = dep.store();
  if (store.shared_latencies()->misses() != 0) {
    out.violate("server warm-up ran ISS measurements");
  }

  // --- oracle ---------------------------------------------------------------
  std::vector<std::vector<Tensor8>> pool(2), expect(2);
  {
    std::vector<const CompiledPlan*> plans;
    std::vector<const Tensor8*> ins;
    for (int m = 0; m < 2; ++m) {
      pool[static_cast<size_t>(m)] =
          make_inputs(graphs[static_cast<size_t>(m)], kPool,
                      ctx.seed * 137 + static_cast<uint64_t>(m));
    }
    for (int m = 0; m < 2; ++m) {
      for (const Tensor8& x : pool[static_cast<size_t>(m)]) {
        plans.push_back(&store.plan(dep.ids[static_cast<size_t>(m)], 1, 1));
        ins.push_back(&x);
      }
    }
    const std::vector<Tensor8> ref = reference_outputs(plans, ins, 4);
    for (size_t i = 0; i < ref.size(); ++i) {
      expect[i / kPool].push_back(ref[i]);
    }
  }

  const std::vector<Arrival> arrivals = schedule(ctx.seed, ctx.seconds);
  uint64_t digest = fnv1a("mixed-overload", 14);
  for (const Arrival& a : arrivals) {
    digest = fnv_mix(digest, a.t_ns);
    digest = fnv_mix(digest, a.model);
    digest = fnv_mix(digest, a.input);
  }
  out.trace_digest = digest;

  // --- timed phase ------------------------------------------------------------
  const int compiles_before = store.compiles();
  const size_t spans_before = SpanLog::get().size();
  std::vector<WallServed> done;
  std::exception_ptr serve_error;
  std::thread serve_thread([&] {
    try {
      done = server->serve();
    } catch (...) {
      serve_error = std::current_exception();
    }
  });
  std::vector<double> late_ms;
  late_ms.reserve(arrivals.size());
  const uint64_t t0_bench = now_ns() + 1'000'000;
  const uint64_t t0_server = server->now_ns() + 1'000'000;
  try {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t0_bench + a.t_ns)));
      const uint64_t now = server->now_ns();
      const uint64_t due = t0_server + a.t_ns;
      late_ms.push_back(
          ns_to_ms(static_cast<double>(now > due ? now - due : 0)));
      WallRequest r;
      r.id = i;
      r.model = dep.ids[static_cast<size_t>(a.model)];
      // the deadline runs from the scheduled send time, so a late
      // generator does not buy its requests extra time
      const uint64_t abs_deadline = due + kDeadlineNs[a.model];
      r.deadline_ns = abs_deadline > now ? abs_deadline - now : 1;
      r.input =
          pool[static_cast<size_t>(a.model)][static_cast<size_t>(a.input)];
      Span span("serve.submit", i);
      server->submit(std::move(r));
    }
  } catch (const std::exception& e) {
    out.violate(std::string("submit failed: ") + e.what());
  }
  server->close();
  serve_thread.join();
  if (serve_error) std::rethrow_exception(serve_error);
  const size_t spans = SpanLog::get().size() - spans_before;
  const int compiles_after_warm = store.compiles() - compiles_before;

  // --- metrics ----------------------------------------------------------------
  std::vector<double> lat, wait, exec, group;
  std::vector<double> ratio[2];
  std::map<std::string, uint64_t> modes;
  uint64_t met = 0, mismatched = 0;
  double cycles = 0;
  out.sent = arrivals.size();
  for (const WallServed& w : done) {
    const Arrival& a = arrivals.at(w.id);
    switch (w.outcome) {
      case ServeOutcome::kRejected: ++out.rejected; continue;
      case ServeOutcome::kShed: ++out.shed; continue;
      case ServeOutcome::kFailed:
        ++out.failed;
        out.violate("request failed: " + w.detail);
        continue;
      case ServeOutcome::kOk: break;
    }
    if (!(w.output == expect[static_cast<size_t>(a.model)]
                            [static_cast<size_t>(a.input)])) {
      ++mismatched;
      continue;
    }
    ++out.ok;
    const uint64_t due = t0_server + a.t_ns;
    const double latency = static_cast<double>(w.completion_ns - due);
    lat.push_back(ns_to_ms(latency));
    met += latency <= static_cast<double>(kDeadlineNs[a.model]) ? 1 : 0;
    wait.push_back(ns_to_ms(static_cast<double>(w.dispatch_ns - w.arrival_ns)));
    const double exec_ns = static_cast<double>(w.completion_ns - w.dispatch_ns);
    exec.push_back(ns_to_ms(exec_ns));
    group.push_back(w.group_size);
    ++modes[to_string(w.mode)];
    if (w.modeled_exec_ns > 0) {
      ratio[a.model].push_back(exec_ns / static_cast<double>(w.modeled_exec_ns));
    }
    // the plan that served this image: the fused chunk it ran in, the
    // sharded plan, or the single-image plan of a data-parallel wave
    const int id = dep.ids[static_cast<size_t>(a.model)];
    const CompiledPlan& plan =
        w.mode == ServeMode::kBatchFused ? store.plan(id, w.group_size, 1)
        : w.mode == ServeMode::kShardedSingle
            ? store.plan(id, 1, dcfg.num_clusters)
            : store.plan(id, 1, 1);
    cycles += static_cast<double>(plan.total_cycles);
  }
  out.failed += mismatched;
  if (mismatched) {
    out.violate(std::to_string(mismatched) +
                " served outputs mismatched the oracle");
  }
  if (compiles_after_warm != 0) out.violate("compiles after warm-up");
  if (out.ok + out.rejected + out.shed + out.failed != out.sent) {
    out.violate("outcomes do not cover the request trace");
  }
  live.reset();
  for (int k = kSetupsBefore; k < kSetupsBefore + kSetupsAfter; ++k) {
    set_up(k);
  }
  const double sent = static_cast<double>(out.sent);
  const double ok = static_cast<double>(out.ok);
  set_e2e(out, median(samples.setup_s), quantile(lat, 0.5), quantile(lat, 0.99),
          ok / ctx.seconds, static_cast<double>(met) / ctx.seconds,
          static_cast<double>(met) / sent, ok ? cycles / ok / 1e6 : 0.0,
          median(samples.coldstart_s) * 1e3);

  set_deploy_layer_metrics(out, samples);

  if (ctx.trace) {
    set_trace_overhead(out, spans, ctx.seconds * 1e9, 1);
    layer_sweep(ctx.seed, out);
    auto& L = out.layer;
    L["serve.queue_wait_ms_p50"] = {quantile(wait, 0.5), "ms"};
    L["serve.queue_wait_ms_p99"] = {quantile(wait, 0.99), "ms"};
    L["serve.exec_ms_p50"] = {quantile(exec, 0.5), "ms"};
    L["serve.exec_ms_p99"] = {quantile(exec, 0.99), "ms"};
    L["serve.batch_size_mean"] = {mean(group), "count"};
    for (const char* mode : {"batch_fused", "sharded_single", "data_parallel"}) {
      L[std::string("serve.mode_frac.") + mode] = {
          ok ? static_cast<double>(modes[mode]) / ok : 0.0, "frac"};
    }
    L["serve.admit_frac"] = {(sent - static_cast<double>(out.rejected)) / sent,
                             "frac"};
    L["serve.reject_frac"] = {static_cast<double>(out.rejected) / sent, "frac"};
    L["serve.shed_frac"] = {static_cast<double>(out.shed) / sent, "frac"};
    L["serve.miss_frac_served"] = {ok ? (ok - static_cast<double>(met)) / ok
                                      : 0.0,
                                   "frac"};
    for (int m = 0; m < 2; ++m) {
      const std::string fam = models[static_cast<size_t>(m)].family;
      L["serve.predict_ratio_p50." + fam] = {quantile(ratio[m], 0.5), "ratio"};
      L["serve.predict_ratio_p99." + fam] = {quantile(ratio[m], 0.99), "ratio"};
    }
    L["serve.compiles_after_warm"] = {static_cast<double>(compiles_after_warm),
                                      "count"};
    L["loadgen.late_ms_p99"] = {quantile(late_ms, 0.99), "ms"};
  }
}

}  // namespace perfbench
