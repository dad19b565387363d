// Workload definitions: seed -> targets and campaign options, plus the
// output gates shared by the timed and traced runs.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>

#include "perfbench/bench.h"
#include "src/core/fs_registry.h"
#include "src/fuzz/ace_engine.h"
#include "src/fuzz/fuzz_engine.h"
#include "src/vfs/bug.h"
#include "src/workload/ace.h"

namespace perfbench {

namespace {

constexpr size_t kMiB = 1024 * 1024;
// Workers of every campaign pipeline (CampaignOptions::jobs).
constexpr size_t kPipelineJobs = 4;

// SplitMix64 finalizer: spreads a small benchmark seed over 64 bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// AceEngine over an explicit list of sampled ordinals: campaign ordinal k
// runs enumeration ordinal sample[k]. Everything else is the AceEngine
// pipeline of `chipmunk ace`.
class SampledAceEngine : public fuzz::AceEngine {
 public:
  SampledAceEngine(chipmunk::FsConfig config, fuzz::CampaignOptions options,
                   std::vector<uint64_t> sample)
      : fuzz::AceEngine(std::move(config), std::move(options), AceSeq2()),
        sample_(std::move(sample)) {}

 protected:
  workload::Workload BuildWorkload(uint64_t ordinal, uint64_t pin) override {
    return fuzz::AceEngine::BuildWorkload(sample_[ordinal], pin);
  }

 private:
  std::vector<uint64_t> sample_;
};

bool AddTarget(std::vector<Target>* targets, const std::string& fs,
               vfs::BugSet bugs, const std::string& label, size_t device,
               Expect expect) {
  auto config = chipmunk::MakeFsConfig(fs, bugs, device);
  if (!config.ok()) {
    return false;
  }
  targets->push_back(Target{label, std::move(config).value(), expect});
  return true;
}

std::string g_work_dir = ".bench_build/work";

}  // namespace

const std::string& WorkDir() { return g_work_dir; }
void SetWorkDir(const std::string& dir) { g_work_dir = dir; }

workload::AceOptions AceSeq2() {
  workload::AceOptions ace;
  ace.seq = 2;
  return ace;
}

std::vector<uint64_t> AceSample(uint64_t seed, size_t squares) {
  const uint64_t v = workload::AceCoreOps().size();
  std::vector<uint64_t> steps;
  for (uint64_t s = 1; s < v; ++s) {
    if (std::gcd(s, v) == 1) {
      steps.push_back(s);
    }
  }
  const uint64_t h = Mix(seed);
  const uint64_t step = steps[h % steps.size()];
  const uint64_t offset = (h >> 32) % v;
  std::vector<uint64_t> sample;
  for (uint64_t r = 0; r < squares; ++r) {
    // Diagonals with one step and distinct offsets are disjoint.
    const uint64_t off = offset + r * (v / squares);
    for (uint64_t i = 0; i < v; ++i) {
      sample.push_back(i * v + (off + step * i) % v);
    }
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

bool MakeSpec(const std::string& name, uint64_t seed, bool short_mode,
              Spec* spec) {
  spec->name = name;
  spec->seed = seed;
  spec->short_mode = short_mode;
  spec->targets.clear();
  const char* const kStrong[] = {"novafs", "novafs-fortis", "pmfs", "winefs",
                                 "splitfs"};
  bool ok = true;
  if (name == "ace-seq2") {
    spec->kind = Kind::kAce;
    for (const char* fs : kStrong) {
      ok = ok && AddTarget(&spec->targets, fs, {}, fs, kMiB, Expect::kClean);
    }
    const uint64_t v = workload::AceCoreOps().size();
    if (workload::AceWorkloadCount(AceSeq2()) != v * v) {
      return false;  // the sample assumes one workload per core-op pair
    }
    spec->ace_ordinals = AceSample(seed, 3);
    if (short_mode) {
      spec->ace_ordinals.resize(8);
    }
    spec->per_campaign = spec->ace_ordinals.size();
  } else if (name == "fuzz-store-16m") {
    spec->kind = Kind::kFuzzStore;
    // Clean winefs, splitfs and ext4dax are not targets: on some seeds the
    // program reports a torn falloc on winefs and splitfs or a lost fsync'd
    // write on ext4dax, known program defects (README.md, "Known program
    // defects"; selftest.py checks that they still reproduce). Put them
    // back, as `for (const char* fs : kStrong)` plus ext4dax, once they are
    // fixed.
    for (const char* fs : {"novafs", "novafs-fortis", "pmfs"}) {
      ok = ok &&
           AddTarget(&spec->targets, fs, {}, fs, 16 * kMiB, Expect::kClean);
    }
    spec->campaigns = short_mode ? 1 : 24;
    spec->per_campaign = short_mode ? 4 : 16;
  } else if (name == "mt-isolation") {
    spec->kind = Kind::kMtIsolation;
    using vfs::BugId;
    // Clean winefs is not a target: under 4 threads the isolation oracle
    // flags a mid-syscall falloc on about one seed in six, a known program
    // defect (README.md, "Known program defects"; selftest.py checks that it
    // still reproduces). Put its clean twin back once that is fixed.
    ok = AddTarget(&spec->targets, "winefs",
                   vfs::BugSet::Single(BugId::kWinefs27TornHandoffCommit),
                   "winefs+27", kMiB, Expect::kIsolationViolation) &&
         AddTarget(&spec->targets, "novafs",
                   vfs::BugSet::Single(BugId::kNova28DramMediaRace),
                   "novafs+28", kMiB, Expect::kIsolationViolation) &&
         AddTarget(&spec->targets, "novafs", {}, "novafs", kMiB,
                   Expect::kClean);
    spec->campaigns = short_mode ? 1 : 8;
    spec->per_campaign = short_mode ? 40 : 150;
  } else {
    return false;
  }
  return ok;
}

fuzz::CampaignOptions CampaignOptionsFor(const Spec& spec, size_t t, size_t c,
                                         const std::string& store_dir) {
  fuzz::CampaignOptions options;
  options.jobs = kPipelineJobs;
  options.iterations = spec.per_campaign;
  // Each campaign draws its own streams.
  const uint64_t stream = (spec.seed * 16 + t) * 64 + c;
  options.seed = Mix(stream);
  switch (spec.kind) {
    case Kind::kAce:
      // `chipmunk ace`: exhaustive replay, lint off, serial replay per
      // workload, no store.
      options.lint = false;
      options.harness.replay_cap = 0;
      options.harness.jobs = 1;
      break;
    case Kind::kFuzzStore:
      // `chipmunk fuzz --campaign DIR`: cap 2, lint on.
      options.campaign_dir = store_dir;
      break;
    case Kind::kMtIsolation:
      // `chipmunk fuzz --threads 4 --isolation-window 4`.
      options.threads = 4;
      options.schedule_seed = Mix(stream + 1000003);
      options.harness.isolation_oracle = true;
      options.harness.isolation_window = 4;
      break;
  }
  return options;
}

std::unique_ptr<fuzz::CampaignDriver> MakeEngine(
    const Spec& spec, size_t t, const fuzz::CampaignOptions& options) {
  const chipmunk::FsConfig& config = spec.targets[t].config;
  if (spec.kind == Kind::kAce) {
    return std::make_unique<SampledAceEngine>(config, options,
                                              spec.ace_ordinals);
  }
  return std::make_unique<fuzz::FuzzEngine>(config, options);
}

void CheckReports(const Target& target,
                  const std::vector<fuzz::CampaignResult>& results,
                  std::vector<std::string>* problems) {
  size_t isolation = 0;
  for (const fuzz::CampaignResult& result : results) {
    for (const chipmunk::BugReport& r : result.unique_reports) {
      if (r.kind == chipmunk::CheckKind::kIsolationViolation) {
        ++isolation;
      }
    }
    if (target.expect == Expect::kClean && !result.unique_reports.empty()) {
      problems->push_back(target.label + ": " +
                          std::to_string(result.unique_reports.size()) +
                          " report(s) on a clean config, first: " +
                          result.unique_reports.front().Signature());
    }
  }
  if (target.expect == Expect::kIsolationViolation && isolation == 0) {
    problems->push_back(target.label + ": no isolation-violation report");
  }
}

std::string ResultDigest(const fuzz::CampaignResult& result) {
  std::string d = "executed=" + std::to_string(result.executed) +
                  " states=" + std::to_string(result.crash_states) +
                  " deduped=" + std::to_string(result.states_deduped) +
                  " corpus=" + std::to_string(result.corpus_size) +
                  " coverage=" + std::to_string(result.coverage_points) +
                  " lint=" + std::to_string(result.lint_findings) +
                  " hb=" + std::to_string(result.hb_findings);
  for (const auto& [sig, hits] : result.report_hits) {
    d += "\n" + sig + " x" + std::to_string(hits);
  }
  return d;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec) && !ec;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
