// fuzz_farm: the coverage-guided fuzzing farm over every back-end, one
// worker per host CPU, default farm session (preemption bound 1, horizon 12,
// sleep-set DPOR, 192-schedule cap). It drives the explore layer the other
// way round from check_litmus: thousands of short DPOR-pruned sessions that
// each build their target, plus mutation and corpus upkeep.
//
// One farm's speed depends on where its seed takes it (the rates of single
// 200-300-exec farms spread by about 25% across seeds), so a run drives a fixed
// set of farms, each with its own farm seed and seed range derived from the
// run's --seed, and reports Σ work over Σ per-farm median wall time.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.h"
#include "explore/check.h"
#include "explore/program_gen.h"
#include "explore/replay_policy.h"
#include "fuzz/farm.h"
#include "fuzz/mutate.h"
#include "runtime/program.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pmc;

// Farms per run and execs per farm. kFarms is odd so the traced run's
// traced/untraced alternation reaches every farm both ways.
constexpr int kFarms = 61;
constexpr uint64_t kExecsPerFarm = 200;
constexpr uint64_t kInitialSeeds = 8;
// Traced-run sample sizes.
constexpr size_t kMutateParents = 32;
constexpr int kMutatesPerParent = 20;
constexpr size_t kHashPrograms = 16;
constexpr int kHashReps = 5;

struct FarmCounts {
  uint64_t execs = 0;
  uint64_t new_classes = 0;
  uint64_t schedules = 0;
  uint64_t dpor_pruned = 0;
  uint64_t corpus = 0;
};

class FuzzFarm final : public Workload {
 public:
  explicit FuzzFarm(uint64_t seed) {
    util::SplitMix64 sm(seed);
    for (uint64_t& s : farm_seeds_) s = sm.next();
  }

  int setup_repeats() const override { return 3; }

  void setup(Tracer& tr) override {
    // Seed-corpus bring-up of every farm: its canonical seed programs, each
    // scanned once across the whole back-end roster.
    for (int f = 0; f < kFarms; ++f) {
      fuzz::FarmOptions o = options(f);
      o.max_execs = kInitialSeeds * rt::sim_targets().size();
      fuzz::Farm farm(o);
      fuzz::FarmResult r;
      {
        auto span = tr.scope("fuzz.farm_run");
        r = farm.run();
      }
      if (!r.failures.empty()) {
        checks_.fail(r.execs, r.failures.size(),
                     "seed-corpus scan: " + r.failures.front().message);
      }
    }
  }

  void iterate(Tracer& tr, bool measured) override {
    const int f = next_farm_;
    next_farm_ = (next_farm_ + 1) % kFarms;
    fuzz::Farm farm(options(f));
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    fuzz::FarmResult r;
    {
      auto span = tr.scope("fuzz.farm_run");
      r = farm.run();
    }
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = process_cpu_seconds() - cpu0;
    bool ok = true;
    if (!r.failures.empty()) {
      ok = false;
      checks_.fail(r.execs, r.failures.size(),
                   std::string(rt::to_string(r.failures.front().target)) +
                       ": " + r.failures.front().message);
    }
    if (!fingerprints_[f].record({r.execs, r.corpus_size, r.schedules,
                                  r.total_classes, r.dpor_pruned})) {
      ok = false;
      checks_.fail(r.execs, r.execs,
                   "farm " + std::to_string(f) +
                       ": fingerprint (execs, corpus, schedules, hb-classes) "
                       "differs from its first run");
    }
    if (ok) checks_.pass(r.execs);
    counts_[f] = {r.execs, r.new_classes, r.schedules, r.dpor_pruned,
                  r.corpus_size};
    if (corpus_sample_.empty()) {
      for (const fuzz::SeedEntry& e : farm.corpus().entries()) {
        corpus_sample_.push_back(e.program);
      }
    }
    if (!measured) return;
    if (tr.enabled()) {
      traced_wall_ += wall;
      traced_cpu_ += cpu;
    } else {
      wall_[f].push_back(wall);
      cpu_[f].push_back(cpu);
    }
  }

  void redrive(Tracer& tr) override {
    // fuzz.mutate_us over the first corpus entries of one farm run.
    util::Rng rng(farm_seeds_[0]);
    const size_t parents = std::min(kMutateParents, corpus_sample_.size());
    for (size_t p = 0; p < parents; ++p) {
      for (int r = 0; r < kMutatesPerParent; ++r) {
        auto span = tr.scope("fuzz.mutate");
        fuzz::mutate(corpus_sample_[p], rng);
      }
    }
    // explore.hash_us over default-schedule traces of corpus programs, on
    // every back-end in turn.
    const std::vector<rt::Target> backends = rt::sim_targets();
    const uint64_t horizon = options(0).session.explore.horizon;
    const size_t programs = std::min(kHashPrograms, corpus_sample_.size());
    for (size_t p = 0; p < programs; ++p) {
      const explore::GenProgramTarget target(corpus_sample_[p],
                                             backends[p % backends.size()]);
      const explore::StatefulSpec spec = target.make_spec();
      explore::ReplayPolicy policy({}, horizon, false);
      rt::ProgramOptions opts = spec.opts;
      opts.schedule_policy = &policy;
      rt::Program prog(opts);
      spec.setup(prog);
      prog.run(spec.body);
      for (int r = 0; r < kHashReps; ++r) {
        auto span = tr.scope("explore.hb_trace_hash");
        explore::hb_trace_hash(prog.trace());
      }
    }
  }

  void end_to_end(std::vector<Metric>& out) const override {
    const Rates r = rates();
    out.push_back({"schedules_per_cpu_s", r.schedules / r.cpu, "schedules/cpu_s",
                   r.note + "; CPU time of all workers; wall: " +
                       std::to_string(r.schedules / r.wall) + " schedules/s"});
  }

  void fingerprints(std::vector<Metric>& out) const override {
    uint64_t farms = 0;
    const FarmCounts sum = total(farms);
    const std::string all = "Σ over " + std::to_string(farms) + " farms";
    out.push_back({"fuzz.execs", static_cast<double>(sum.execs), "count", all});
    out.push_back({"fuzz.corpus_entries", static_cast<double>(sum.corpus),
                   "count", all});
    out.push_back({"explore.schedules", static_cast<double>(sum.schedules),
                   "count", all});
    out.push_back({"explore.hb_classes", static_cast<double>(sum.new_classes),
                   "count", all});
    out.push_back({"explore.dpor_pruned", static_cast<double>(sum.dpor_pruned),
                   "count", all});
  }

  void per_layer(const Tracer& tr, std::vector<Metric>& out) const override {
    fingerprints(out);
    uint64_t farms = 0;
    const FarmCounts sum = total(farms);
    const double promoted = static_cast<double>(sum.corpus) -
                            static_cast<double>(kInitialSeeds * farms);
    const Rates r = rates();
    out.push_back({"fuzz.hb_classes_per_s", r.wall > 0 ? r.classes / r.wall : 0,
                   "classes/s", r.note});
    out.push_back({"fuzz.promote_ratio",
                   promoted / static_cast<double>(std::max<uint64_t>(1, sum.execs)),
                   "ratio", "promoted mutants / execs"});
    out.push_back({"fuzz.mutate_us", 1e6 * median(tr.self_seconds("fuzz.mutate")),
                   "us", "per fuzz::mutate"});
    out.push_back({"fuzz.cpu_util",
                   traced_wall_ > 0 ? traced_cpu_ / (traced_wall_ * host_threads())
                                    : 0,
                   "ratio", "process CPU s / (wall s x jobs), traced farm runs"});
    out.push_back({"explore.dpor_reduction",
                   static_cast<double>(sum.dpor_pruned) /
                       static_cast<double>(std::max<uint64_t>(1, sum.schedules)),
                   "ratio", "dpor_pruned / schedules"});
    out.push_back({"explore.hash_us",
                   1e6 * median(tr.self_seconds("explore.hb_trace_hash")), "us",
                   "per hb_trace_hash"});
  }

 private:
  /// Σ of the last counts of every farm run so far; `farms` counts them
  /// (all kFarms unless the run was too short).
  FarmCounts total(uint64_t& farms) const {
    FarmCounts sum;
    for (const FarmCounts& c : counts_) {
      sum.execs += c.execs;
      sum.new_classes += c.new_classes;
      sum.schedules += c.schedules;
      sum.dpor_pruned += c.dpor_pruned;
      sum.corpus += c.corpus;
      farms += c.execs != 0 ? 1 : 0;
    }
    return sum;
  }

  /// Σ work over the farms run untraced, and Σ of their median wall and CPU
  /// times.
  struct Rates {
    double classes = 0, schedules = 0, wall = 0, cpu = 0;
    std::string note;
  };
  Rates rates() const {
    Rates r;
    size_t farms = 0, runs = 0;
    for (int f = 0; f < kFarms; ++f) {
      if (wall_[f].empty()) continue;
      r.classes += static_cast<double>(counts_[f].new_classes);
      r.schedules += static_cast<double>(counts_[f].schedules);
      r.wall += median(wall_[f]);
      r.cpu += median(cpu_[f]);
      ++farms;
      runs += wall_[f].size();
    }
    r.note = "Σ over " + std::to_string(farms) + " farms / Σ median farm "
             "time, " + std::to_string(runs) + " farm runs of " +
             std::to_string(kExecsPerFarm) + " execs";
    return r;
  }

  fuzz::FarmOptions options(int f) const {
    fuzz::FarmOptions o;
    o.max_execs = kExecsPerFarm;
    o.jobs = host_threads();
    o.seed = farm_seeds_[f];
    o.initial_seeds = kInitialSeeds;
    o.seed_base = farm_seeds_[f];
    return o;
  }

  uint64_t farm_seeds_[kFarms] = {};
  int next_farm_ = 0;
  Fingerprint fingerprints_[kFarms];
  FarmCounts counts_[kFarms];
  std::vector<double> wall_[kFarms];  // untraced farm-run seconds
  std::vector<double> cpu_[kFarms];   // their process CPU seconds
  double traced_wall_ = 0, traced_cpu_ = 0;
  std::vector<explore::GenProgram> corpus_sample_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_farm(uint64_t seed) {
  return std::make_unique<FuzzFarm>(seed);
}

}  // namespace perfbench
