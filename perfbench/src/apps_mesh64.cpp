// apps_mesh64: the Fig. 8 kernels (RADIOSITY-, RAYTRACE-, VOLREND-like) on
// the no-CC baseline and under software cache coherency, on the 64-core
// mesh, through apps::run_app. Cached shared reads, write-backs, SWCC
// entry/exit flushes, the mesh NoC and the SDRAM port do the work — the
// workload where a cache, NoC or back-end change shows.
#include <algorithm>
#include <memory>
#include <string>

#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "bench.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pmc;
using apps::App;
using rt::Target;

constexpr int kKernels = 3;
const char* const kKernelNames[kKernels] = {"radiosity_like", "raytrace_like",
                                            "volrend_like"};
const Target kTargets[2] = {Target::kNoCC, Target::kSWCC};

struct RunTotals {
  uint64_t cycles = 0;  // Σ CoreStats::cycles_total
  uint64_t makespan = 0;
  uint64_t mem_ops = 0;
  uint64_t hits = 0, misses = 0;
  uint64_t swcc_flush = 0, swcc_cycles = 0;
  uint64_t noc_packets = 0, link_stall = 0;
  double host_s[2] = {0, 0};  // per target
  double improvement_pct = 0;  // mean over kernels, simulated
};

class AppsMesh64 final : public Workload {
 public:
  AppsMesh64(uint64_t seed, const std::string& config_dir)
      : seed_(seed), config_path_(config_dir + "/mesh64.cfg") {}

  int setup_repeats() const override { return 15; }

  void setup(Tracer& tr) override {
    mc_ = sim::MachineConfig::from_file(config_path_);
    util::Rng rng(seed_);
    for (uint64_t& s : kernel_seeds_) s = rng.next_u64();
    // The host-sc reference checksums every simulated run must match. The
    // kernels' checksums do not depend on the core count, so the host
    // target runs on one thread: a set-up of a few milliseconds spread over
    // several threads times the host's thread wake-ups more than the kernels.
    for (int k = 0; k < kKernels; ++k) {
      auto app = make_app(k);
      rt::ProgramOptions o;
      o.target = Target::kHostSC;
      o.cores = 1;
      o.lock_capacity = 4096;
      auto span = tr.scope("apps.run_app_host");
      reference_[k] = apps::run_app(*app, o).checksum;
    }
  }

  void iterate(Tracer& tr, bool measured) override {
    RunTotals it;
    uint64_t cycles_by[kKernels][2] = {};
    std::vector<uint64_t> fp;
    bool ok = true;
    for (int k = 0; k < kKernels; ++k) {
      for (int t = 0; t < 2; ++t) {
        auto app = make_app(k);
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        apps::AppRunResult r;
        {
          auto span = tr.scope("apps.run_app");
          r = apps::run_app(*app, options(kTargets[t]));
        }
        const double host_s = seconds_between(t0, Clock::now());
        const double cpu_s = process_cpu_seconds() - cpu0;
        std::string why;
        if (r.checksum != reference_[k]) {
          why = "checksum differs from host-sc";
        } else if (!r.validated_ok) {
          why = "Definition 12 violation";
        } else if (r.makespan == 0) {
          why = "zero makespan";
        }
        if (!why.empty()) {
          ok = false;
          checks_.fail(1, 1, std::string(kKernelNames[k]) + "@" +
                                 rt::to_string(kTargets[t]) + ": " + why);
        }
        cycles_by[k][t] = r.stats.cycles_total;
        it.cycles += r.stats.cycles_total;
        it.makespan += r.makespan;
        it.mem_ops += r.stats.loads + r.stats.stores + r.stats.atomics;
        it.hits += r.stats.dcache_hits;
        it.misses += r.stats.dcache_misses;
        if (kTargets[t] == Target::kSWCC) {
          it.swcc_flush += r.stats.stall_flush;
          it.swcc_cycles += r.stats.cycles_total;
        }
        it.noc_packets += r.metrics.counter("noc.packets");
        it.link_stall += r.metrics.counter("noc.link_stall_cycles");
        if (measured && !tr.enabled()) {
          run_s_[k][t].push_back(host_s);
          cpu_s_[k][t].push_back(cpu_s);
        }
        it.host_s[t] += host_s;
        fp.push_back(r.makespan);
        fp.push_back(r.checksum);
      }
      it.improvement_pct +=
          100.0 * (1.0 - static_cast<double>(cycles_by[k][1]) /
                             static_cast<double>(cycles_by[k][0])) /
          kKernels;
    }
    if (!fingerprint_.record(fp)) {
      ok = false;
      checks_.fail(2 * kKernels, 2 * kKernels,
                   "fingerprint (makespans, checksums) differs from the run's "
                   "first iteration");
    }
    if (ok) checks_.pass(2 * kKernels);
    if (!measured) return;
    cycles_ = it.cycles;
    last_ = it;
    if (tr.enabled()) traced_.push_back(it);
  }

  void redrive(Tracer& tr) override {
    // runtime.build_ms: Program + App::build of every (kernel, target) pair,
    // without running them.
    for (int rep = 0; rep < 3; ++rep) {
      for (int k = 0; k < kKernels; ++k) {
        for (const Target t : kTargets) {
          auto app = make_app(k);
          rt::ProgramOptions o = options(t);
          app->tune(o);
          auto span = tr.scope("runtime.build");
          rt::Program prog(o);
          app->build(prog);
        }
      }
    }
  }

  void end_to_end(std::vector<Metric>& out) const override {
    // Each run_app executes the kernel under exactly one schedule.
    double cpu = 0;
    for (const auto& per_target : cpu_s_) {
      for (const std::vector<double>& v : per_target) cpu += median(v);
    }
    out.push_back({"schedules_per_cpu_s", 2 * kKernels / cpu, "schedules/cpu_s",
                   "6 runs / Σ median run_app CPU time; wall: " +
                       std::to_string(2 * kKernels / host_seconds()) +
                       " schedules/s, radiosity no-CC " +
                       sample_note(run_s_[0][0]) + " s"});
  }

  void fingerprints(std::vector<Metric>& out) const override {
    out.push_back({"sim.mem_ops", static_cast<double>(last_.mem_ops), "count",
                   "loads+stores+atomics per iteration"});
    out.push_back({"sim.makespan_cycles", static_cast<double>(last_.makespan),
                   "cycles", "Σ makespan of the 6 runs"});
  }

  void per_layer(const Tracer& tr, std::vector<Metric>& out) const override {
    fingerprints(out);
    const std::vector<double> run_s =
        tr.self_seconds_per_iteration("apps.run_app");
    double run_total = 0, host_nocc = 0, host_swcc = 0;
    uint64_t ops = 0;
    for (double s : run_s) run_total += s;
    for (const RunTotals& t : traced_) {
      ops += t.mem_ops;
      host_nocc += t.host_s[0];
      host_swcc += t.host_s[1];
    }
    const RunTotals& t = traced_.front();
    out.push_back({"sim.cycles_per_s", static_cast<double>(cycles_) / host_seconds(),
                   "cycles/s", "Σ cycles / Σ median run_app time of 6 runs"});
    out.push_back({"sim.run_s", median(run_s), "s",
                   "run_app self time per iteration (6 runs)"});
    out.push_back({"sim.host_ns_per_mem_op",
                   ops == 0 ? 0 : 1e9 * run_total / static_cast<double>(ops),
                   "ns", "run_app host time / memory ops"});
    out.push_back({"sim.dcache_hit_ratio",
                   static_cast<double>(t.hits) /
                       static_cast<double>(std::max<uint64_t>(1, t.hits + t.misses)),
                   "ratio", "D-cache hits / (hits+misses)"});
    out.push_back({"sim.stall_flush_pct",
                   100.0 * static_cast<double>(t.swcc_flush) /
                       static_cast<double>(std::max<uint64_t>(1, t.swcc_cycles)),
                   "%", "flush stalls / cycles of the SWCC runs (paper <= 0.66%)"});
    out.push_back({"sim.noc_packets", static_cast<double>(t.noc_packets),
                   "count", "per iteration"});
    out.push_back({"sim.noc_link_stall_cycles", static_cast<double>(t.link_stall),
                   "cycles", "per iteration"});
    out.push_back({"runtime.build_ms",
                   1e3 * median(tr.self_seconds("runtime.build")), "ms",
                   "Program + App::build"});
    out.push_back({"runtime.swcc_nocc_host_ratio",
                   host_nocc > 0 ? host_swcc / host_nocc : 0, "ratio",
                   "host time SWCC / no-CC, same kernels"});
    out.push_back({"apps.improvement_pct", t.improvement_pct, "%",
                   "simulated SWCC gain over no-CC, mean of 3 kernels "
                   "(paper: about 22%)"});
  }

 private:
  std::unique_ptr<App> make_app(int k) const {
    switch (k) {
      case 0: {
        apps::RadiosityConfig c;
        c.patches = 384;
        c.neighbors = 8;
        c.iterations = 3;
        c.seed = kernel_seeds_[0];
        return std::make_unique<apps::RadiosityLike>(c);
      }
      case 1: {
        apps::RaytraceConfig c;
        c.width = 32;
        c.height = 32;
        c.spheres = 28;
        c.seed = kernel_seeds_[1];
        return std::make_unique<apps::RaytraceLike>(c);
      }
      default: {
        apps::VolrendConfig c;
        c.volume = 12;
        c.image = 32;
        c.seed = kernel_seeds_[2];
        return std::make_unique<apps::VolrendLike>(c);
      }
    }
  }

  /// Σ over the 6 (kernel, target) runs of the median untraced run_app time.
  double host_seconds() const {
    double s = 0;
    for (const auto& per_target : run_s_) {
      for (const std::vector<double>& v : per_target) s += median(v);
    }
    return s;
  }

  rt::ProgramOptions options(Target t) const {
    rt::ProgramOptions o;
    o.target = t;
    o.cores = mc_.num_cores;
    o.machine = mc_;
    o.validate = true;
    o.lock_capacity = 4096;
    o.fiber_execution = true;
    return o;
  }

  uint64_t seed_;
  std::string config_path_;
  sim::MachineConfig mc_;
  uint64_t kernel_seeds_[kKernels] = {};
  uint64_t reference_[kKernels] = {};
  Fingerprint fingerprint_;
  uint64_t cycles_ = 0;  // Σ cycles_total of one iteration's 6 runs
  std::vector<double> run_s_[kKernels][2];  // untraced run_app seconds
  std::vector<double> cpu_s_[kKernels][2];  // their process CPU seconds
  RunTotals last_;  // the last measured iteration
  std::vector<RunTotals> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_apps_mesh64(uint64_t seed,
                                           const std::string& config_dir) {
  return std::make_unique<AppsMesh64>(seed, config_dir);
}

}  // namespace perfbench
