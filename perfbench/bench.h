// Shared declarations of the end-to-end benchmark (see README.md).
//
// Three workloads, each a set of targets (file-system configs) driven
// through the campaign engines behind `chipmunk ace` / `chipmunk fuzz`:
//   ace-seq2        AceEngine over a balanced seeded sample of ACE seq-2
//   fuzz-store-16m  FuzzEngine campaigns with a persistent store, 16 MiB
//   mt-isolation    FuzzEngine with 4-thread workloads + isolation oracle
// A timed run (timed.cc) repeats one fixed-size round until the time is up
// and reports the end-to-end metrics; a traced run (traced.cc) rebuilds the
// harness stage by stage and reports the per-layer metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fs_config.h"
#include "src/fuzz/campaign_driver.h"
#include "src/workload/ace.h"

namespace perfbench {

// What a target's reports must look like for the run to count as correct.
enum class Expect {
  kClean,               // no report at all
  kIsolationViolation,  // at least one isolation-violation report
};

struct Target {
  std::string label;  // "winefs+27", "novafs", ...
  chipmunk::FsConfig config;
  Expect expect = Expect::kClean;
};

enum class Kind { kAce, kFuzzStore, kMtIsolation };

// One benchmark workload, fully derived from (name, seed, size scale).
struct Spec {
  std::string name;
  Kind kind = Kind::kAce;
  uint64_t seed = 0;
  std::vector<Target> targets;
  // Per round, each target runs `campaigns` campaigns of `per_campaign`
  // workloads, each campaign with its own seed. Several short campaigns
  // instead of one long one keep a seed's state count close to other
  // seeds': in one long campaign, mutations of one costly workload pile up.
  size_t campaigns = 1;
  uint64_t per_campaign = 0;
  // ace-seq2: the sampled ordinals of the seq-2 enumeration (AceSample).
  std::vector<uint64_t> ace_ordinals;
  bool short_mode = false;  // self-test sizes
};

// The ACE options of ace-seq2: seq-2, PM mode (every target is strong).
workload::AceOptions AceSeq2();

// A balanced seeded sample of the seq-2 enumeration, `squares` x V ordinals
// for a vocabulary of V core ops. Ordinal i*V + j runs core op i, then core
// op j. Each square is a diagonal {(i, (offset + step*i) mod V)} with `step`
// coprime to V, so it holds every core op exactly once in each position, and
// samples of different seeds cost about the same. (A contiguous slice of
// the enumeration fixes the first op to two or three values, and its cost
// varies several-fold from seed to seed.)
std::vector<uint64_t> AceSample(uint64_t seed, size_t squares);

// Builds the spec for a workload name; false for an unknown name. `short_mode`
// shrinks the per-round work for the self-test.
bool MakeSpec(const std::string& name, uint64_t seed, bool short_mode,
              Spec* spec);

// The options of campaign `c` of target `t`. `store_dir` is the fresh
// campaign-store directory (fuzz-store-16m only; ignored elsewhere).
fuzz::CampaignOptions CampaignOptionsFor(const Spec& spec, size_t t, size_t c,
                                         const std::string& store_dir);

// The engine behind `chipmunk ace` (ace-seq2) or `chipmunk fuzz` (others).
std::unique_ptr<fuzz::CampaignDriver> MakeEngine(
    const Spec& spec, size_t t, const fuzz::CampaignOptions& options);

// Checks the reports of one target's campaigns against its expectation;
// appends a description of each mismatch to `problems`.
void CheckReports(const Target& target,
                  const std::vector<fuzz::CampaignResult>& results,
                  std::vector<std::string>* problems);

// A canonical digest of the deterministic fields of a campaign result
// (crash states, report signatures, corpus size, coverage points) — equal
// across repeated rounds of one seed.
std::string ResultDigest(const fuzz::CampaignResult& result);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

// Working directory for campaign stores and trace files (run.py points it
// into the benchmark's build directory).
const std::string& WorkDir();
void SetWorkDir(const std::string& dir);

// Timed run: end-to-end metrics, tracing off.
Outcome RunTimed(const Spec& spec, double seconds);

// Traced run: per-layer metrics from a single-threaded rebuild of the
// harness, plus a Chrome trace-event file of its spans.
Outcome RunTraced(const Spec& spec, double seconds);

// --- small helpers shared by both runs ------------------------------------

double WallSeconds();        // steady clock
double ProcessCpuSeconds();  // all threads of the process
double PeakRssMb();
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
// Removes and recreates an empty directory.
bool FreshDir(const std::string& dir);
void RemoveDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
