// cnn-closed: a closed loop of one-image ResNet18 requests.
//
// Four client threads, each owning a Dispatcher over one shared PlanStore,
// send one-request FormedBatches with an unbounded deadline and wait for
// the reply before sending the next. The model of each request is a
// seeded draw from ResNet18 dense/1:4/1:8/1:16, balanced in blocks of four
// so every complete block serves each sparsity once. With no queue, the
// nn conv instances and ExecutionEngine::run do almost all the work; the
// dense requests catch a change that buys sparse speed with dense speed.

#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "serve/dispatcher.hpp"
#include "workload_models.hpp"

namespace perfbench {

using namespace decimate;

namespace {

constexpr int kClients = 4;  // closed-loop client threads, one core each
// latency_p99_ms needs 10 samples beyond it: the timed phase runs for
// --seconds and on until this many requests completed (at most 2x longer)
constexpr uint64_t kMinRequests = 1000;
constexpr int kPool = 8;      // distinct seeded inputs per model
constexpr int kModels = 4;    // dense, 1:4, 1:8, 1:16
constexpr int kDigestDraws = 256;

/// A client's request sequence: (model index, input index) pairs, the
/// model balanced in seeded-shuffled blocks of kModels.
class ClosedTrace {
 public:
  explicit ClosedTrace(uint64_t seed) : rng_(seed) {}
  std::pair<int, int> next() {
    if (pos_ == kModels) {
      for (int i = 0; i < kModels; ++i) block_[i] = i;
      for (int i = kModels - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.uniform_int(0, i)]);
      }
      pos_ = 0;
    }
    const int model = block_[pos_++];
    return {model, rng_.uniform_int(0, kPool - 1)};
  }

 private:
  Rng rng_;
  int block_[kModels] = {};
  int pos_ = kModels;
};

uint64_t client_seed(uint64_t seed, int client) {
  return seed * 0x9E3779B97F4A7C15ull + 0xc11e47ull + static_cast<uint64_t>(client);
}

struct ClientLog {
  std::vector<double> latency_ms, form_ms, turnaround_ms;
  std::vector<uint64_t> cycles;
  std::map<std::string, uint64_t> modes;
  uint64_t sent = 0, ok = 0, mismatched = 0, errors = 0;
  uint64_t last_reply_ns = 0;
  std::string error;
};

}  // namespace

void run_cnn_closed(const RunContext& ctx, Outcome& out) {
  const std::vector<ModelSpec> models = resnet18_models();
  std::vector<PlanSpec> specs;
  for (int i = 0; i < kModels; ++i) specs.push_back({i, 1, 1, false});
  DispatchConfig dcfg;
  dcfg.num_clusters = 1;
  dcfg.fused_batches = {1};

  // --- set-up, from fresh state each time ---------------------------------
  struct Serving {
    std::unique_ptr<ScratchDir> dir;  // outlives the stores mapping it
    std::vector<Graph> graphs;
    Deployment dep;
    std::vector<std::unique_ptr<Dispatcher>> clients;
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
    for (int c = 0; c < kClients; ++c) {
      s->clients.push_back(std::make_unique<Dispatcher>(s->dep.store(), dcfg));
      for (int id : s->dep.ids) s->clients.back()->warm(id);
    }
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
  const auto& clients = live->clients;
  PlanStore& store = dep.store();
  if (store.shared_latencies()->misses() != 0) {
    out.violate("dispatcher warm-up ran ISS measurements");
  }

  // --- oracle ---------------------------------------------------------------
  std::vector<std::vector<Tensor8>> pool;
  std::vector<std::vector<Tensor8>> expect(kModels);
  {
    std::vector<const CompiledPlan*> plans;
    std::vector<const Tensor8*> ins;
    for (int m = 0; m < kModels; ++m) {
      pool.push_back(make_inputs(graphs[static_cast<size_t>(m)], kPool,
                                 ctx.seed * 131 + static_cast<uint64_t>(m)));
    }
    for (int m = 0; m < kModels; ++m) {
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

  // the request trace: its digest covers each client's first draws
  uint64_t digest = fnv1a("cnn-closed", 10);
  for (int c = 0; c < kClients; ++c) {
    ClosedTrace tr(client_seed(ctx.seed, c));
    for (int i = 0; i < kDigestDraws; ++i) digest = fnv_mix(digest, tr.next());
  }
  out.trace_digest = digest;

  // --- timed phase ------------------------------------------------------------
  const int compiles_before = store.compiles();
  const size_t spans_before = SpanLog::get().size();
  std::vector<ClientLog> logs(kClients);
  const uint64_t start = now_ns() + 1'000'000;
  const uint64_t stop = start + static_cast<uint64_t>(ctx.seconds * 1e9);
  const uint64_t hard_stop = start + static_cast<uint64_t>(2 * ctx.seconds * 1e9);
  std::atomic<uint64_t> completed{0};
  SloConfig slo;  // unbounded deadline, one-request batches
  slo.max_batch = 1;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      Dispatcher& disp = *clients[static_cast<size_t>(c)];
      ClosedTrace tr(client_seed(ctx.seed, c));
      while (now_ns() < start) {
      }
      uint64_t last_reply = start;
      uint64_t id = static_cast<uint64_t>(c) << 40;
      try {
        for (uint64_t t_loop = now_ns();
             t_loop < stop ||
             (completed.load() < kMinRequests && t_loop < hard_stop);
             t_loop = now_ns()) {
          if (log.sent != 0) {
            log.turnaround_ms.push_back(
                ns_to_ms(static_cast<double>(t_loop - last_reply)));
          }
          const auto [m, in] = tr.next();
          FormedBatch batch;
          batch.model = dep.ids[static_cast<size_t>(m)];
          Request r;
          r.id = ++id;
          r.model = batch.model;
          r.input = pool[static_cast<size_t>(m)][static_cast<size_t>(in)];
          batch.requests.push_back(std::move(r));
          const uint64_t t_send = now_ns();
          DispatchResult res;
          {
            Span span("serve.dispatch", id);
            res = disp.dispatch(std::move(batch), slo);
          }
          const uint64_t t_reply = now_ns();
          ++log.sent;
          ++completed;
          log.form_ms.push_back(ns_to_ms(static_cast<double>(t_send - t_loop)));
          log.latency_ms.push_back(
              ns_to_ms(static_cast<double>(t_reply - t_send)));
          log.cycles.push_back(res.served.at(0).stats.exec_cycles());
          ++log.modes[to_string(res.mode)];
          if (res.served[0].output ==
              expect[static_cast<size_t>(m)][static_cast<size_t>(in)]) {
            ++log.ok;
          } else {
            ++log.mismatched;
          }
          last_reply = t_reply;
        }
      } catch (const std::exception& e) {
        ++log.sent;
        ++log.errors;
        log.error = e.what();
      }
      log.last_reply_ns = last_reply;
    });
  }
  for (std::thread& th : threads) th.join();
  const size_t spans = SpanLog::get().size() - spans_before;
  const int compiles_after_warm = store.compiles() - compiles_before;

  // --- metrics ----------------------------------------------------------------
  std::vector<double> lat, form, turn;
  std::map<std::string, uint64_t> modes;
  double cycles_sum = 0;
  uint64_t cycles_n = 0, end_ns = start;
  for (const ClientLog& log : logs) {
    out.sent += log.sent;
    out.ok += log.ok;
    out.failed += log.mismatched + log.errors;
    if (log.errors) out.violate("dispatch failed: " + log.error);
    lat.insert(lat.end(), log.latency_ms.begin(), log.latency_ms.end());
    form.insert(form.end(), log.form_ms.begin(), log.form_ms.end());
    turn.insert(turn.end(), log.turnaround_ms.begin(), log.turnaround_ms.end());
    for (const auto& [mode, n] : log.modes) modes[mode] += n;
    // complete blocks only: each serves every sparsity once, so the mean
    // is the same for every seed and run length
    const size_t complete = log.cycles.size() / kModels * kModels;
    for (size_t i = 0; i < complete; ++i) {
      cycles_sum += static_cast<double>(log.cycles[i]);
    }
    cycles_n += complete;
    end_ns = std::max(end_ns, log.last_reply_ns);
  }
  if (out.failed != 0) {
    out.violate(std::to_string(out.failed) +
                " requests failed or mismatched the oracle");
  }
  if (compiles_after_warm != 0) out.violate("compiles after warm-up");
  const double elapsed_s = ns_to_s(static_cast<double>(end_ns - start));
  const double throughput = static_cast<double>(out.ok) / elapsed_s;
  const double mcyc = cycles_n ? cycles_sum / static_cast<double>(cycles_n) / 1e6
                               : 0.0;
  live.reset();
  for (int k = kSetupsBefore; k < kSetupsBefore + kSetupsAfter; ++k) {
    set_up(k);
  }
  set_e2e(out, median(samples.setup_s), quantile(lat, 0.5), quantile(lat, 0.99),
          throughput, throughput,
          out.sent ? static_cast<double>(out.ok) / static_cast<double>(out.sent)
                   : 0.0,
          mcyc, median(samples.coldstart_s) * 1e3);
  out.exact["modeled_mcyc_per_img"] = mcyc;
  set_deploy_layer_metrics(out, samples);

  if (ctx.trace) {
    set_trace_overhead(out, spans, static_cast<double>(end_ns - start),
                       kClients);
    layer_sweep(ctx.seed, out);
    closed_loop_serve_metrics(lat, form, turn, modes, compiles_after_warm,
                              out);
  }
}

}  // namespace perfbench
