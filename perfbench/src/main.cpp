// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <cnn-closed|mixed-overload|paper-deploy>
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR [--results-dir DIR]
//
// Prints host diagnostics, per-workload request counts, every metric by
// name and unit, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from the benchmark's own spans, the layer sweep and the program's
// counters). Exits 1 when any output mismatches its reference or any
// correctness gate fails, 2 on bad arguments.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace perfbench;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(metric.value) << ", \"unit\": \"" << metric.unit
       << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string exact_json(const std::map<std::string, double>& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << json_number(v);
    first = false;
  }
  os << "}";
  return os.str();
}

std::string probe_json(const HostProbe& p) {
  return "{\"mem_gb_s\": " + json_number(p.mem_gb_s) +
         ", \"alu_ms\": " + json_number(p.alu_ms) + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<cnn-closed|mixed-overload|paper-deploy> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--results-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string results_dir;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      ctx.workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(ctx.seconds > 0)) return usage();
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage();
      }
      ctx.trace = val[0] == '1';
    } else if (key == "--work-dir") {
      ctx.work_dir = val;
    } else if (key == "--results-dir") {
      results_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || ctx.work_dir.empty()) return usage();
  void (*workload)(const RunContext&, Outcome&) = nullptr;
  if (ctx.workload == "cnn-closed") workload = run_cnn_closed;
  if (ctx.workload == "mixed-overload") workload = run_mixed_overload;
  if (ctx.workload == "paper-deploy") workload = run_paper_deploy;
  if (workload == nullptr) return usage();
  std::filesystem::create_directories(ctx.work_dir);

  const std::string host = host_descriptor_json();
  std::printf("host: %s\n", host.c_str());
  const HostProbe before = probe_host();
  std::printf("probe.before: %s\n", probe_json(before).c_str());
  std::fflush(stdout);

  Outcome out;
  SpanLog::get().enable(ctx.trace);
  try {
    workload(ctx, out);
  } catch (const std::exception& e) {
    out.violate(std::string("workload aborted: ") + e.what());
  }
  SpanLog::get().enable(false);
  const HostProbe after = probe_host();
  std::printf("probe.after: %s\n", probe_json(after).c_str());

  const double failed_frac =
      out.sent ? static_cast<double>(out.failed) / static_cast<double>(out.sent)
               : 0.0;
  std::printf("counts: workload=%s sent=%" PRIu64 " ok=%" PRIu64
              " rejected=%" PRIu64 " shed=%" PRIu64 " failed=%" PRIu64
              " failed_frac=%.6f\n",
              ctx.workload.c_str(), out.sent, out.ok, out.rejected, out.shed,
              out.failed, failed_frac);
  const auto& reported = ctx.trace ? out.layer : out.e2e;
  for (const auto& [name, m] : reported) {
    std::printf("metric: %-40s %18.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("trace_digest: %016" PRIx64 "\n", out.trace_digest);
  std::printf("exact: %s\n", exact_json(out.exact).c_str());
  if (ctx.trace) SpanLog::get().print_summary();
  for (const std::string& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  const bool correct = out.violations.empty() && out.failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<uint64_t>(out.sent, 1)
         << ", \"failed\": " << out.failed
         << ", \"metrics\": " << metrics_json(reported) << "}";

  if (!results_dir.empty()) {
    std::filesystem::create_directories(results_dir);
    const std::string stem = results_dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + "-trace" +
                             (ctx.trace ? "1" : "0");
    std::ofstream f(stem + ".json");
    f << "{\"host\": " << host << ",\n \"probe_before\": "
      << probe_json(before) << ",\n \"probe_after\": " << probe_json(after)
      << ",\n \"workload\": \"" << ctx.workload << "\", \"seed\": "
      << ctx.seed << ", \"seconds\": " << json_number(ctx.seconds)
      << ",\n \"counts\": {\"sent\": " << out.sent << ", \"ok\": " << out.ok
      << ", \"rejected\": " << out.rejected << ", \"shed\": " << out.shed
      << ", \"failed\": " << out.failed << "},\n \"trace_digest\": \""
      << std::hex << out.trace_digest << std::dec
      << "\",\n \"exact\": " << exact_json(out.exact)
      << ",\n \"e2e\": " << metrics_json(out.e2e)
      << ",\n \"layer\": " << metrics_json(out.layer)
      << ",\n \"correct\": " << (correct ? "true" : "false") << "}\n";
    if (ctx.trace) SpanLog::get().write_chrome_json(stem + ".trace.json");
  }

  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
