// The timed run. One round sets up every campaign of every target, then runs
// them one after another, each on a pipeline of 4 workers.
// A round is a fixed amount of work for a given seed; it repeats until the
// time is up, and every rate is the median over rounds.
#include <cstdio>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

// Round 0 warms the allocator and caches up; it is checked like every
// round, but its timings are dropped once enough other rounds exist.
constexpr int kMinRounds = 3;
// Set-ups per round: each is timed, the last one is run. Engine
// construction zero-fills a device per campaign, which on fuzz-store-16m
// (48 x 16 MiB) varies by 2x between consecutive set-ups; the median of
// many steadies it.
constexpr int kSetupsPerRound = 5;

struct Campaign {
  size_t target = 0;
  std::unique_ptr<fuzz::CampaignDriver> engine;
};

// Set-up: configs, ACE sample or fuzz seeds, engines, and for
// fuzz-store-16m the fresh store directories and OpenCampaign.
bool SetUp(const Spec& spec, const std::string& round_dir,
           std::vector<Campaign>* campaigns,
           std::vector<std::string>* problems) {
  Spec fresh;
  if (!MakeSpec(spec.name, spec.seed, spec.short_mode, &fresh)) {
    problems->push_back("cannot rebuild the workload spec");
    return false;
  }
  const bool store = fresh.kind == Kind::kFuzzStore;
  if (store && !FreshDir(round_dir)) {
    problems->push_back("cannot create " + round_dir);
    return false;
  }
  campaigns->clear();
  for (size_t t = 0; t < fresh.targets.size(); ++t) {
    for (size_t c = 0; c < fresh.campaigns; ++c) {
      const std::string dir =
          store ? round_dir + "/" + fresh.targets[t].label + "-" +
                      std::to_string(c)
                : "";
      Campaign campaign{t, MakeEngine(fresh, t,
                                      CampaignOptionsFor(fresh, t, c, dir))};
      common::Status opened = campaign.engine->OpenCampaign();
      if (!opened.ok()) {
        problems->push_back(fresh.targets[t].label +
                            ": OpenCampaign: " + opened.ToString());
        return false;
      }
      campaigns->push_back(std::move(campaign));
    }
  }
  return true;
}

}  // namespace

Outcome RunTimed(const Spec& spec, double seconds) {
  Outcome out;
  std::vector<double> setup_s, states_per_s, workloads_per_s, cpu_us_per_state;
  std::vector<std::string> digests;  // round 0, per campaign
  uint64_t round_states = 0;
  const double deadline = WallSeconds() + seconds;
  for (int round = 0; round < kMinRounds || WallSeconds() < deadline;
       ++round) {
    const std::string round_dir =
        WorkDir() + "/" + spec.name + "-round" + std::to_string(round);
    std::vector<Campaign> campaigns;
    bool ready = true;
    for (int s = 0; s < kSetupsPerRound && ready; ++s) {
      // Closing and deleting the previous set-up's stores is not set-up.
      campaigns.clear();
      RemoveDir(round_dir);
      const double t0 = WallSeconds();
      ready = SetUp(spec, round_dir, &campaigns, &out.problems);
      setup_s.push_back(WallSeconds() - t0);
    }
    if (!ready) {
      break;
    }

    // Measured: the campaigns themselves.
    const double t1 = WallSeconds();
    const double c1 = ProcessCpuSeconds();
    std::vector<std::vector<fuzz::CampaignResult>> results(
        spec.targets.size());
    for (Campaign& campaign : campaigns) {
      results[campaign.target].push_back(campaign.engine->Run());
    }
    const double t2 = WallSeconds();
    const double c2 = ProcessCpuSeconds();
    campaigns.clear();
    RemoveDir(round_dir);

    uint64_t states = 0;
    uint64_t executed = 0;
    size_t index = 0;
    for (size_t t = 0; t < results.size(); ++t) {
      CheckReports(spec.targets[t], results[t], &out.problems);
      for (const fuzz::CampaignResult& r : results[t]) {
        states += r.crash_states;
        executed += r.executed;
        out.attempted += r.executed;
        out.failed += r.replay_retries;  // each failing workload retries once
        const std::string digest = ResultDigest(r);
        if (round == 0) {
          digests.push_back(digest);
        } else if (digest != digests[index]) {
          out.problems.push_back(spec.targets[t].label + ": round " +
                                 std::to_string(round) +
                                 " differs from round 0 for the same seed");
        }
        ++index;
      }
    }
    if (round == 0) {
      round_states = states;
    }
    if (states == 0 || executed == 0) {
      out.problems.push_back("a round visited no crash states");
      break;
    }
    const double wall = t2 - t1;
    states_per_s.push_back(static_cast<double>(states) / wall);
    workloads_per_s.push_back(static_cast<double>(executed) / wall);
    cpu_us_per_state.push_back((c2 - c1) * 1e6 / static_cast<double>(states));
    std::printf("round %d: %llu workloads, %llu crash states in %.3f s "
                "(cpu %.3f s)\n",
                round, static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(states), wall, c2 - c1);
    if (!out.problems.empty()) {
      break;
    }
  }
  const double error_rate =
      out.attempted == 0 ? 0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("error rate: %llu of %llu workloads failed (%.6f)\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted), error_rate);
  if (states_per_s.size() >= kMinRounds) {
    setup_s.erase(setup_s.begin(), setup_s.begin() + kSetupsPerRound);
    states_per_s.erase(states_per_s.begin());
    workloads_per_s.erase(workloads_per_s.begin());
    cpu_us_per_state.erase(cpu_us_per_state.begin());
  }
  std::printf("medians over %zu rounds and %zu set-ups\n",
              states_per_s.size(), setup_s.size());
  out.correct = out.problems.empty() && out.attempted > 0;
  out.metrics = {
      {"states_per_s", Quantile(states_per_s, 0.5), "1/s"},
      {"workloads_per_s", Quantile(workloads_per_s, 0.5), "1/s"},
      {"cpu_us_per_state", Quantile(cpu_us_per_state, 0.5), "us"},
      {"crash_states", static_cast<double>(round_states), "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };
  return out;
}

}  // namespace perfbench
