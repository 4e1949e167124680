// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --vcalc PATH --work DIR [--spans FILE]
//
// Runs one workload (stencil, remap, serve_mix, cli) and prints, as the
// last line of stdout, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs (--trace 0) report the end-to-end
// metrics; traced runs (--trace 1) the per-layer metrics, and write
// every span to FILE. perfbench/run.py builds this binary and vcalc and
// passes the paths; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms.dist", "ms"},
    {"latency_ms.shared", "ms"},
};

std::vector<MetricSpec> per_layer() {
  std::vector<MetricSpec> v = {
      {"lang.parse_ms", "ms"},
      {"lang.translate_ms", "ms"},
      {"lang.clauses", "count"},
      {"gen.plan_ms", "ms"},
      {"gen.closed_form_frac", "ratio"},
      {"spmd.plan_build_ms", "ms"},
      {"spmd.plan_cache_hit_ratio", "ratio"},
      {"spmd.sched_hit_ratio", "ratio"},
      {"spmd.jit_compile_ms", "ms"},
      {"spmd.jit_hits", "count"},
      {"spmd.native_compile_ms", "ms"},
  };
  for (const std::string stem : {"rt.construct_ms.", "rt.run_ms.", "rt.gather_ms.",
                                 "cli.inproc_ms.", "updates_per_s.", "cli_ms."})
    for (const char* t : {"seq", "dist", "shared", "native", "proc"})
      v.push_back({stem + t, stem == "updates_per_s." ? "1/s" : "ms"});
  const std::vector<MetricSpec> rest = {
      {"rt.path.fused_frac", "ratio"},
      {"rt.path.generic_frac", "ratio"},
      {"rt.path.interp_frac", "ratio"},
      {"rt.path.sched_frac", "ratio"},
      {"rt.path.jit_frac", "ratio"},
      {"rt.messages", "count"},
      {"rt.bulk_messages", "count"},
      {"rt.halo_values", "count"},
      {"rt.redist_messages", "count"},
      {"rt.remote_reads", "count"},
      {"rt.tests", "count"},
      {"rt.sim_time", "units"},
      {"rt.bytes_moved", "bytes"},
      {"proc.run_ms", "ms"},
      {"proc.spawn_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.exec_p50_ms", "ms"},
      {"serve.compile_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.coalesced", "count"},
      {"serve.queue_peak", "count"},
      {"serve.rejected", "count"},
      {"serve.send_lag_ms", "ms"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"capacity_rps", "1/s"},
      {"cli_cold_ms.dist", "ms"},
      {"cli_cold_ms.native", "ms"},
      {"cli.startup_ms", "ms"},
      {"trace.untraced_wall_s", "s"},
      {"trace.traced_wall_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stencil|remap|serve_mix|cli --seed N "
               "--seconds S --trace 0|1 --vcalc PATH --work DIR [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const char* val = argv[k + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (flag == "--vcalc") {
      opt.vcalc = val;
    } else if (flag == "--work") {
      opt.work = val;
    } else if (flag == "--spans") {
      spans = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !perfbench::known_workload(opt.workload) || opt.vcalc.empty() ||
      opt.work.empty() || !(opt.seconds > 0))
    return usage();

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace && !spans.empty() && !perfbench::write_spans(spans))
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());

  bool correct = rep.tally.failed == 0 && !rep.tally.invalid;
  std::string metrics;
  const std::vector<MetricSpec> specs = opt.trace ? per_layer() : kEndToEnd;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto it = rep.metrics.find(specs[k].name);
    // A per-layer metric of a layer this workload does not exercise
    // reads 0; a missing end-to-end metric is an error.
    double v = 0;
    if (it != rep.metrics.end()) {
      v = it->second;
    } else if (!opt.trace) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", specs[k].name.c_str());
      correct = false;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", specs[k].name.c_str());
      correct = false;
      v = -1;
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", v);
    metrics += (k == 0 ? "\"" : ", \"") + specs[k].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + specs[k].unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(rep.tally.attempted),
              static_cast<long long>(rep.tally.failed), metrics.c_str());
  return 0;
}
