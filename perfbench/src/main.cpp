// perfbench: the repo benchmark's executable (perfbench/README.md).
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--spans-out=<path>]
//
// Sets the workload up several times (median CPU time = setup_s), runs one
// untimed warm-up iteration, then measured iterations until --seconds have
// passed.
// --trace=0 reports the end-to-end metrics; --trace=1 alternates untraced
// and traced iterations, re-drives a fixed input sample through the
// per-call functions, and reports the per-layer metrics, taking those of
// layers the workload does not call from brief runs of the other workloads.
// Human-readable lines go first; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/scheduler.h"

#ifndef PERFBENCH_CONFIG_DIR
#error "PERFBENCH_CONFIG_DIR must name the frozen machine-config directory"
#endif

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"lock_mesh256", "apps_mesh64",
                                  "check_litmus", "fuzz_farm"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  if (name == "lock_mesh256") return make_lock_mesh256(seed, PERFBENCH_CONFIG_DIR);
  if (name == "apps_mesh64") return make_apps_mesh64(seed, PERFBENCH_CONFIG_DIR);
  if (name == "check_litmus") return make_check_litmus(seed);
  if (name == "fuzz_farm") return make_fuzz_farm(seed);
  return nullptr;
}

bool has_metric(const std::vector<Metric>& ms, const std::string& name) {
  return std::any_of(ms.begin(), ms.end(),
                     [&](const Metric& m) { return m.name == name; });
}

/// The per-layer metrics of a brief run of `w`: one traced set-up, one
/// untraced and one traced measured iteration, and the re-drive.
std::vector<Metric> brief_per_layer(Workload& w) {
  Tracer tr;
  tr.set_enabled(true);
  w.setup(tr);
  for (uint64_t i = 1; i <= 2; ++i) {
    tr.set_enabled(i == 2);
    tr.set_iteration(i);
    w.iterate(tr, /*measured=*/true);
  }
  tr.set_enabled(true);
  tr.set_iteration(0);
  w.redrive(tr);
  std::vector<Metric> out;
  w.per_layer(tr, out);
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

std::optional<std::string> flag_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::string(arg + n + 1);
  }
  return std::nullopt;
}

bool parse_u64(const std::string& s, uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

/// Accepts "--name=value" flags only. Unknown flags are errors.
bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t v = 0;
    if (auto s = flag_value(arg, "--workload")) {
      a.workload = *s;
    } else if (auto s = flag_value(arg, "--seed")) {
      if (!parse_u64(*s, a.seed)) return false;
    } else if (auto s = flag_value(arg, "--seconds")) {
      if (!parse_u64(*s, v) || v == 0 || v > 600) return false;
      a.seconds = static_cast<double>(v);
    } else if (auto s = flag_value(arg, "--trace")) {
      if (*s != "0" && *s != "1") return false;
      a.trace = *s == "1" ? 1 : 0;
    } else if (auto s = flag_value(arg, "--spans-out")) {
      a.spans_out = *s;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.trace >= 0;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<lock_mesh256|apps_mesh64|"
                 "check_litmus|fuzz_farm> --seed=<n> --seconds=<1..600> "
                 "--trace=<0|1> [--spans-out=<path>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // The traced run of every workload includes brief runs of the sim ones.
  const bool needs_sim = args.trace == 1 || args.workload == "lock_mesh256" ||
                         args.workload == "apps_mesh64";
  if (needs_sim && !pmc::sim::Scheduler::fibers_supported()) {
    // Without fibers every simulated core would be its own host thread
    // (64-256 per machine), far beyond the host's CPUs.
    std::fprintf(stderr,
                 "perfbench: %s needs fiber execution, which this build does "
                 "not support; refusing to fall back to one host thread per "
                 "simulated core\n",
                 args.workload.c_str());
    return 3;
  }
  std::printf("perfbench %s  seed=%llu  seconds=%g  trace=%d  threads<=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, host_threads());

  Tracer tr;
  std::vector<double> setup_cpu, setup_wall;
  try {
    tr.set_enabled(args.trace == 1);
    for (int k = 0; k < w->setup_repeats(); ++k) {
      tr.set_iteration(0);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      w->setup(tr);
      setup_wall.push_back(seconds_between(t0, Clock::now()));
      setup_cpu.push_back(process_cpu_seconds() - cpu0);
    }
    tr.set_enabled(false);
    w->iterate(tr, /*measured=*/false);  // warm-up: checked, not timed

    // Measured iterations. The traced run alternates untraced (even) and
    // traced (odd) iterations so their wall times pair up for the overhead.
    std::vector<double> wall[2];
    const auto start = Clock::now();
    for (uint64_t i = 1;; ++i) {
      const bool traced = args.trace == 1 && i % 2 == 0;
      tr.set_enabled(traced);
      tr.set_iteration(i);
      const auto t0 = Clock::now();
      w->iterate(tr, /*measured=*/true);
      wall[traced ? 1 : 0].push_back(seconds_between(t0, Clock::now()));
      const bool both = args.trace == 0 || !wall[1].empty();
      if (both && seconds_between(start, Clock::now()) >= args.seconds) break;
    }
    std::vector<Metric> metrics;
    Checks checks;
    if (args.trace == 1) {
      tr.set_enabled(true);
      tr.set_iteration(0);
      w->redrive(tr);
      w->per_layer(tr, metrics);
      checks = w->checks();
      if (!args.spans_out.empty() && !tr.write_json(args.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans_out.c_str());
        return 1;
      }
      const double untraced = median(wall[0]);
      metrics.push_back(
          {"obs.trace_overhead_pct",
           untraced > 0 ? 100.0 * (median(wall[1]) / untraced - 1.0) : 0.0,
           "%",
           "median traced vs untraced iteration wall, " +
               std::to_string(wall[1].size()) + "+" +
               std::to_string(wall[0].size()) + " iterations"});
      // Layers this workload does not call: their figures come from brief
      // runs of the workloads that do, whose checks count here too.
      for (const char* other : kWorkloads) {
        if (args.workload == other) continue;
        const std::unique_ptr<Workload> o = make_workload(other, args.seed);
        for (Metric& m : brief_per_layer(*o)) {
          if (has_metric(metrics, m.name)) continue;
          m.note = std::string("brief ") + other + " run: " + m.note;
          metrics.push_back(std::move(m));
        }
        checks.merge(o->checks());
      }
      metrics.push_back(
          {"error_rate",
           checks.attempted() == 0 ? 1.0
                                   : static_cast<double>(checks.failed()) /
                                         static_cast<double>(checks.attempted()),
           "fraction", "failed / attempted operations"});
    } else {
      checks = w->checks();
      metrics.push_back({"setup_s", median(setup_cpu), "s",
                         "median set-up CPU time (all threads), " +
                             sample_note(setup_cpu) + "; wall " +
                             sample_note(setup_wall)});
      w->end_to_end(metrics);
      metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB",
                         "process high-water mark"});
    }

    std::vector<Metric> fingerprints;
    w->fingerprints(fingerprints);
    for (const Metric& m : fingerprints) {
      std::printf("fingerprint %-26s %16.10g %-10s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.note.c_str());
    }
    const bool correct = checks.failed() == 0 && checks.attempted() > 0;
    for (const std::string& why : checks.reasons()) {
      std::printf("!! %s\n", why.c_str());
    }
    std::string json = "{\"correct\": ";
    std::string body;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: %s is not a finite number\n",
                     m.name.c_str());
        return 1;
      }
      std::printf("%-30s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
      body += (body.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
              json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted());
    json += ", \"failed\": " + std::to_string(checks.failed());
    json += ", \"metrics\": {" + body + "}}";
    std::printf("%s\n", json.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
