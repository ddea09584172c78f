// lock_mesh256: heavy-contention acquire/compute/release rounds on the
// 256-core mesh, once with the distributed lock and once with the remote
// test-and-set spin lock, through Machine::run. Lock words are uncached
// atomics and polls, so the scheduler's per-decision scan dominates host
// time — the workload where a faster scheduler shows.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sync/locks.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pmc;

// Rounds per core per lock kind. One round already queues all 256 cores on
// the lock; it keeps an iteration (both locks) under a second of host time,
// so a run holds enough iterations for a steady median time.
constexpr int kRounds = 1;

struct LockTotals {
  uint64_t makespan = 0;
  uint64_t mem_ops = 0;  // loads + stores + atomics
  uint64_t atomics = 0;
};

class LockMesh256 final : public Workload {
 public:
  LockMesh256(uint64_t seed, const std::string& config_dir)
      : seed_(seed), config_path_(config_dir + "/mesh256.cfg") {}

  int setup_repeats() const override { return 15; }

  void setup(Tracer& tr) override {
    mc_ = sim::MachineConfig::from_file(config_path_);
    // Per-core critical-section and gap lengths drawn from the seed around
    // the heavy-contention point (cs 200, gap 20).
    util::Rng rng(seed_);
    cs_.assign(static_cast<size_t>(mc_.num_cores), 0);
    gap_.assign(static_cast<size_t>(mc_.num_cores), 0);
    for (int c = 0; c < mc_.num_cores; ++c) {
      cs_[static_cast<size_t>(c)] = 180 + static_cast<uint32_t>(rng.next_below(41));
      gap_[static_cast<size_t>(c)] = 10 + static_cast<uint32_t>(rng.next_below(21));
    }
    for (int k = 0; k < 2; ++k) built_[k] = build(k == 0, tr);
  }

  void iterate(Tracer& tr, bool measured) override {
    LockTotals it;
    obs::MetricsRegistry reg;
    bool ok = true;
    uint64_t makespans[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      Built b = built_[k].machine ? std::move(built_[k]) : build(k == 0, tr);
      built_[k] = Built{};
      const RunResult r = run(b, tr);
      if (!r.ok) {
        ok = false;
        checks_.fail(1, 1, std::string(k == 0 ? "distributed" : "spin") +
                               " lock run: " + r.why);
      }
      makespans[k] = r.makespan;
      it.makespan += r.makespan;
      it.atomics += r.stats.atomics;
      it.mem_ops += r.stats.loads + r.stats.stores + r.stats.atomics;
      cycles_[k] = r.stats.cycles_total;
      if (measured && !tr.enabled()) {
        run_s_[k].push_back(r.run_s);
        cpu_s_[k].push_back(r.cpu_s);
      }
      b.machine->export_metrics(reg);
    }
    if (!fingerprint_.record({makespans[0], makespans[1], it.atomics})) {
      ok = false;
      checks_.fail(2, 2, "fingerprint (makespans, atomics) differs from the "
                         "run's first iteration");
    }
    if (ok) checks_.pass(2);
    if (!measured) return;
    last_ = it;
    if (tr.enabled()) {
      traced_.push_back(it);
      noc_packets_ = reg.counter("noc.packets");
      link_stall_ = reg.counter("noc.link_stall_cycles");
      port_wait_ = reg.counter("port.wait_cycles");
      const obs::Histogram* h = reg.histogram("port.sdram.wait");
      port_p99_ = h != nullptr ? h->quantile(0.99) : 0;
    }
  }

  void end_to_end(std::vector<Metric>& out) const override {
    // Each Machine::run executes the program under exactly one schedule.
    out.push_back({"schedules_per_cpu_s",
                   2.0 / (median(cpu_s_[0]) + median(cpu_s_[1])), "schedules/cpu_s",
                   "2 lock runs / Σ median Machine::run CPU time; wall: " +
                       std::to_string(2.0 / host_seconds()) +
                       " schedules/s, distributed " + sample_note(run_s_[0]) +
                       " s, spin " + sample_note(run_s_[1]) + " s"});
  }

  void fingerprints(std::vector<Metric>& out) const override {
    out.push_back({"sim.mem_ops", static_cast<double>(last_.mem_ops), "count",
                   "loads+stores+atomics per iteration"});
    out.push_back({"sim.makespan_cycles", static_cast<double>(last_.makespan),
                   "cycles", "Σ makespan of both lock runs"});
    out.push_back({"sync.atomics", static_cast<double>(last_.atomics), "count",
                   "both lock runs"});
  }

  void per_layer(const Tracer& tr, std::vector<Metric>& out) const override {
    fingerprints(out);
    const std::vector<double> run_s = tr.self_seconds_per_iteration("sim.run");
    double run_total = 0;
    uint64_t ops = 0;
    for (double s : run_s) run_total += s;
    for (const LockTotals& t : traced_) ops += t.mem_ops;
    out.push_back({"sim.cycles_per_s",
                   static_cast<double>(cycles_[0] + cycles_[1]) / host_seconds(),
                   "cycles/s",
                   "Σ cycles / Σ median Machine::run time; distributed " +
                       std::to_string(cycles_[0]) + " cycles, spin " +
                       std::to_string(cycles_[1]) + " cycles"});
    out.push_back({"sim.run_s", median(run_s), "s",
                   "Machine::run self time per iteration"});
    out.push_back({"sim.host_ns_per_mem_op",
                   ops == 0 ? 0 : 1e9 * run_total / static_cast<double>(ops),
                   "ns", "Machine::run host time / memory ops"});
    out.push_back({"sim.noc_packets", static_cast<double>(noc_packets_),
                   "count", "both lock runs"});
    out.push_back({"sim.noc_link_stall_cycles", static_cast<double>(link_stall_),
                   "cycles", "both lock runs"});
    out.push_back({"sim.port_wait_cycles", static_cast<double>(port_wait_),
                   "cycles", "both lock runs"});
    out.push_back({"sim.port_queue_p99", port_p99_, "cycles",
                   "SDRAM port wait p99, both lock runs"});
    out.push_back({"sync.round_cycles",
                   static_cast<double>(last_.makespan) / kRounds, "cycles",
                   "Σ makespan of both locks / rounds"});
    out.push_back({"runtime.build_ms", 1e3 * median(tr.self_seconds("sync.build")),
                   "ms", "Machine + lock manager construction"});
  }

 private:
  struct Built {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<sync::LockManager> locks;
    int lock = -1;
  };
  struct RunResult {
    sim::CoreStats stats;
    uint64_t makespan = 0;
    double run_s = 0;
    double cpu_s = 0;  // process CPU seconds of the same call
    bool ok = true;
    std::string why;
  };

  Built build(bool distributed, Tracer& tr) const {
    auto span = tr.scope("sync.build");
    Built b;
    b.machine = std::make_unique<sim::Machine>(mc_);
    b.machine->enable_snapshots();  // fiber execution: one host thread
    if (distributed) {
      b.locks = std::make_unique<sync::DistLockManager>(
          *b.machine, sim::kSdramBase, 64 * 1024, 0, 8 * 1024);
    } else {
      b.locks = std::make_unique<sync::SpinLockManager>(
          *b.machine, sim::kSdramBase, 64 * 1024);
    }
    b.lock = b.locks->create();
    return b;
  }

  /// Σ over both lock kinds of the median untraced Machine::run time.
  double host_seconds() const { return median(run_s_[0]) + median(run_s_[1]); }

  RunResult run(Built& b, Tracer& tr) const {
    // Mutual exclusion is checked on the host: exactly one simulated core
    // executes at a time, and a waiter's acquire can only return after the
    // holder's release ran, so two holders at once show as owner != -1.
    int owner = -1;
    uint64_t entries = 0;
    bool overlap = false;
    sync::LockManager& locks = *b.locks;
    const int lock = b.lock;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      auto span = tr.scope("sim.run");
      b.machine->run([&](sim::Core& c) {
        const size_t id = static_cast<size_t>(c.id());
        for (int i = 0; i < kRounds; ++i) {
          locks.acquire(c, lock);
          if (owner != -1) overlap = true;
          owner = c.id();
          ++entries;
          c.compute(cs_[id]);
          owner = -1;
          locks.release(c, lock);
          c.compute(gap_[id]);
        }
      });
    }
    RunResult r;
    r.run_s = seconds_between(t0, Clock::now());
    r.cpu_s = process_cpu_seconds() - cpu0;
    r.stats = b.machine->stats_sum();
    for (int c = 0; c < mc_.num_cores; ++c) {
      r.makespan = std::max(r.makespan, b.machine->stats(c).cycles_total);
    }
    const uint64_t want = static_cast<uint64_t>(mc_.num_cores) * kRounds;
    if (overlap) {
      r.ok = false;
      r.why = "two cores held the lock at once";
    } else if (entries != want) {
      r.ok = false;
      r.why = std::to_string(entries) + " critical sections, expected " +
              std::to_string(want);
    } else if (r.makespan == 0) {
      r.ok = false;
      r.why = "zero makespan";
    }
    return r;
  }

  uint64_t seed_;
  std::string config_path_;
  sim::MachineConfig mc_;
  std::vector<uint32_t> cs_, gap_;
  Built built_[2];
  Fingerprint fingerprint_;
  uint64_t cycles_[2] = {0, 0};      // Σ cycles_total per lock kind
  std::vector<double> run_s_[2];     // untraced Machine::run seconds per kind
  std::vector<double> cpu_s_[2];     // their process CPU seconds
  LockTotals last_;  // the last measured iteration
  std::vector<LockTotals> traced_;
  uint64_t noc_packets_ = 0, link_stall_ = 0, port_wait_ = 0;
  double port_p99_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lock_mesh256(uint64_t seed,
                                            const std::string& config_dir) {
  return std::make_unique<LockMesh256>(seed, config_dir);
}

}  // namespace perfbench
