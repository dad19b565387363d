// The traced run: per-layer metrics.
//
// Two parts, both on the workloads of one timed round:
//   1. A campaign pass — the same pipelined campaigns as a timed round, with
//      an on_commit observer — for the fuzz-layer metrics, the workloads
//      themselves (ACE: AceEnumerator::At over the sample; fuzz-store-16m:
//      read back from the campaign-store log with ParseWorkload;
//      mt-isolation: the committed workloads, captured at the commit
//      barrier) and the store-layer metrics.
//   2. A single-threaded rebuild of Harness::TestWorkload from the public
//      functions of each layer, one span per stage, with the same
//      HarnessOptions, sandbox budget, temporal logging and live probe. Each
//      workload also runs through the untraced TestWorkload; the crash-state
//      count and report signatures of the two must agree, and the stage sum
//      is reported against the harness time (trace.coverage).
// Spans are kept in memory and written at exit as Chrome trace-event JSON.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "perfbench/bench.h"
#include "src/analysis/hb.h"
#include "src/analysis/lint.h"
#include "src/common/coverage.h"
#include "src/core/checker.h"
#include "src/core/harness.h"
#include "src/core/linearization.h"
#include "src/core/oracle.h"
#include "src/core/replay_engine.h"
#include "src/core/runner.h"
#include "src/core/sandbox.h"
#include "src/fuzz/fuzz_engine.h"
#include "src/pmem/pm.h"
#include "src/pmem/pm_device.h"
#include "src/store/campaign_store.h"
#include "src/workload/ace.h"
#include "src/workload/serialize.h"

namespace perfbench {

namespace {

// --- spans ----------------------------------------------------------------

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its index.
  size_t Open(const char* name, uint64_t workload) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, workload, parent, NowUs(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes span `i` and any span left open inside it (a stage the sandbox
  // aborted with an exception); returns its duration.
  double Close(size_t i) {
    const double now = NowUs();
    while (!open_.empty()) {
      const size_t top = open_.back();
      open_.pop_back();
      spans_[top].end_us = now;
      if (top == i) {
        break;
      }
    }
    return spans_[i].end_us - spans_[i].begin_us;
  }

  bool WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[384];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span\": %zu, \"parent\": %lld, "
                    "\"workload\": %llu}}%s\n",
                    s.name, s.begin_us, s.end_us - s.begin_us, i,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.workload),
                    i + 1 == spans_.size() ? "" : ",");
      out << line;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    uint64_t workload;  // shared by every span of one traced workload
    int64_t parent;     // span index, -1 at the root
    double begin_us;
    double end_us;
  };

  double NowUs() const { return (WallSeconds() - origin_) * 1e6; }

  double origin_ = WallSeconds();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Runs `fn` inside a span and returns the span's duration in microseconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, uint64_t workload, Fn&& fn) {
  const size_t span = tracer.Open(name, workload);
  fn();
  return tracer.Close(span);
}

// Counts fences and non-temporal bytes on the record Pm.
class PmCounter : public pmem::PmHook {
 public:
  void OnWrite(uint64_t off, const uint8_t* old_data, const uint8_t* new_data,
               size_t n, bool temporal) override {
    if (!temporal) {
      nt_bytes += n;
    }
  }
  void OnFence() override { ++fences; }

  uint64_t fences = 0;
  uint64_t nt_bytes = 0;
};

// The per-layer measurements of one workload.
struct Sample {
  // Stages of the rebuilt harness (the stage sum).
  double record_us = 0;  // device + mkfs/mount + snapshot + run
  double mkfs_mount_us = 0;
  double snapshot_us = 0;
  double run_us = 0;
  double probe_us = 0;
  double oracle_us = 0;
  double lint_us = 0;
  double hb_us = 0;
  double lin_us = 0;
  double replay_us = 0;
  double teardown_us = 0;  // releasing the harness state
  // Outside the stage sum.
  double replay_plain_us = 0;  // Run without the dedup index
  double recovery_mount_us = 0;
  double check_us = 0;
  double harness_us = 0;  // untraced TestWorkload

  double trace_ops = 0;
  double fences = 0;
  double nt_bytes = 0;
  double oracle_snapshots = 0;
  double lin_images = 0;
  double lin_image_runs = 0;
  double lin_pairs_per_op = 0;
  double findings = 0;
  double crash_points = 0;
  double crash_states = 0;
  double mounted = 0;

  double StageSum() const {
    return record_us + probe_us + oracle_us + lint_us + hb_us + lin_us +
           replay_us + teardown_us;
  }
};

// The rebuilt TestWorkload: the stages of src/core/harness.cc, each called
// through its layer's public function inside a span. Fills `sample` and the
// deduplicated report signatures; returns false when a stage failed the way
// TestWorkload would return an error.
bool RebuiltHarness(const chipmunk::FsConfig& config,
                    const chipmunk::HarnessOptions& options,
                    const workload::Workload& w, uint64_t id, Tracer& tracer,
                    Sample* sample, std::set<std::string>* signatures,
                    std::string* error) {
  using chipmunk::BugReport;
  using chipmunk::CheckKind;
  using chipmunk::RunSandboxed;
  using chipmunk::SandboxResult;
  using common::Status;
  const chipmunk::SandboxOptions record_sandbox{
      options.sandbox_op_budget == 0 ? 0 : options.sandbox_op_budget * 16};
  const chipmunk::SandboxOptions probe_sandbox{options.sandbox_op_budget};
  const size_t root = tracer.Open("workload", id);

  // 1. Record.
  std::unique_ptr<pmem::PmDevice> dev;
  std::unique_ptr<pmem::Pm> pm;
  std::unique_ptr<vfs::FileSystem> fs;
  vfs::CrashGuarantees guarantees{};
  std::vector<uint8_t> base;
  pmem::TraceLogger logger;
  PmCounter counter;
  std::vector<common::Status> target_statuses;
  SandboxResult record;
  sample->record_us = Timed(tracer, "record", id, [&] {
    dev = std::make_unique<pmem::PmDevice>(config.device_size);
    pm = std::make_unique<pmem::Pm>(dev.get());
    fs = config.make(pm.get());
    logger.set_log_temporal(options.lint || options.targeted);
    record = RunSandboxed(pm.get(), record_sandbox, [&]() -> Status {
      Status mounted = common::OkStatus();
      sample->mkfs_mount_us = Timed(tracer, "fs.mkfs_mount", id, [&] {
        mounted = fs->Mkfs();
        if (mounted.ok()) {
          mounted = fs->Mount();
        }
      });
      RETURN_IF_ERROR(mounted);
      guarantees = fs->Guarantees();
      sample->snapshot_us = Timed(tracer, "pmem.snapshot", id,
                                  [&] { base = dev->Snapshot(); });
      sample->run_us = Timed(tracer, "record.run", id, [&] {
        pm->AddHook(&logger);
        pm->AddHook(&counter);
        vfs::Vfs vfs_layer(fs.get());
        chipmunk::WorkloadRunner runner(&w, &vfs_layer, pm.get());
        target_statuses = runner.RunAll();
      });
      return common::OkStatus();
    });
    pm->RemoveHook(&counter);
    pm->RemoveHook(&logger);
  });
  if (!record.status.ok()) {
    *error = "record: " + record.status.ToString();
    tracer.Close(root);
    return false;
  }
  const bool live_fault = pm->faulted();
  const std::string live_fault_detail =
      live_fault ? pm->fault().ToString() : "";

  // Live usability probe, exactly as the harness runs it.
  common::Status live_probe = common::OkStatus();
  SandboxResult probe;
  sample->probe_us = Timed(tracer, "probe", id, [&] {
    probe = RunSandboxed(pm.get(), probe_sandbox, [&]() -> Status {
      vfs::Vfs vfs_layer(fs.get());
      auto fd =
          vfs_layer.Open("/.live_probe", vfs::OpenFlags{.create = true});
      if (!fd.ok()) {
        live_probe = fd.status();
      } else {
        uint8_t byte = 0x5a;
        auto n = vfs_layer.Write(*fd, &byte, 1);
        if (!n.ok()) {
          live_probe = n.status();
        }
        (void)vfs_layer.Close(*fd);
        common::Status unlink = vfs_layer.Unlink("/.live_probe");
        if (live_probe.ok()) {
          live_probe = unlink;
        }
      }
      return common::OkStatus();
    });
  });

  // 2. Oracle.
  chipmunk::OracleTrace oracle;
  SandboxResult oracle_guard;
  sample->oracle_us = Timed(tracer, "oracle", id, [&] {
    oracle_guard = RunSandboxed(nullptr, record_sandbox, [&]() -> Status {
      auto built = chipmunk::BuildOracle(config, w);
      if (!built.ok()) {
        return built.status();
      }
      oracle = std::move(built).value();
      return common::OkStatus();
    });
  });
  if (!oracle_guard.status.ok()) {
    *error = "oracle: " + oracle_guard.status.ToString();
    tracer.Close(root);
    return false;
  }
  sample->oracle_snapshots =
      static_cast<double>(oracle.pre.size() + oracle.post.size());

  auto add_report = [&](const BugReport& r) {
    signatures->insert(r.Signature());
  };
  auto new_report = [&](CheckKind kind, std::string detail) {
    BugReport r;
    r.fs = config.name;
    r.workload_name = w.name;
    r.kind = kind;
    r.detail = std::move(detail);
    return r;
  };
  if (live_fault) {
    add_report(new_report(CheckKind::kOutOfBounds, live_fault_detail));
  }
  if (probe.tripped()) {
    add_report(
        new_report(CheckKind::kRecoveryFailure, probe.status.ToString()));
  } else if (!live_probe.ok() &&
             live_probe.code() != common::ErrorCode::kExists) {
    add_report(new_report(CheckKind::kUsability, live_probe.ToString()));
  }
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (target_statuses[i].code() != oracle.statuses[i].code()) {
      BugReport r = new_report(CheckKind::kLiveDivergence, "");
      r.syscall_index = static_cast<int>(i);
      r.syscall = w.ops[i].ToString();
      add_report(r);
    }
  }

  // 3. Static analysis (lint + happens-before).
  pmem::Trace trace = logger.TakeTrace();
  sample->trace_ops = static_cast<double>(trace.size());
  sample->fences = static_cast<double>(counter.fences);
  sample->nt_bytes = static_cast<double>(counter.nt_bytes);
  if (options.lint) {
    analysis::LintOptions lint_options;
    lint_options.synchronous = guarantees.synchronous;
    std::vector<analysis::LintFinding> findings;
    sample->lint_us = Timed(tracer, "analysis.lint", id, [&] {
      findings = analysis::LintTrace(trace, lint_options);
    });
    sample->hb_us = Timed(tracer, "analysis.hb", id, [&] {
      const analysis::HbAnalysis hb = analysis::BuildHb(trace, lint_options);
      std::vector<analysis::LintFinding> hb_findings =
          analysis::HbLint(hb, lint_options);
      findings.insert(findings.end(), hb_findings.begin(), hb_findings.end());
    });
    sample->findings = static_cast<double>(findings.size());
    for (const analysis::LintFinding& f : findings) {
      BugReport r = new_report(CheckKind::kLintFinding, "");
      r.lint_rule = analysis::LintRuleId(f.rule);
      if (f.syscall_index >= 0 &&
          static_cast<size_t>(f.syscall_index) < w.ops.size()) {
        r.syscall = w.ops[f.syscall_index].ToString();
      }
      add_report(r);
    }
  }

  // 4. Linearization oracle (multi-threaded workloads).
  chipmunk::LinearizationOracle lin;
  const bool have_lin = w.threads > 1 && options.isolation_oracle;
  if (have_lin) {
    SandboxResult lin_guard;
    sample->lin_us = Timed(tracer, "lin", id, [&] {
      lin_guard = RunSandboxed(nullptr, record_sandbox, [&]() -> Status {
        auto built = chipmunk::BuildLinearizationOracle(
            config, w, options.isolation_window);
        if (!built.ok()) {
          return built.status();
        }
        lin = std::move(built).value();
        return common::OkStatus();
      });
    });
    if (!lin_guard.status.ok()) {
      *error = "linearization: " + lin_guard.status.ToString();
      tracer.Close(root);
      return false;
    }
    sample->lin_images = static_cast<double>(lin.images.size());
    sample->lin_image_runs = static_cast<double>(lin.image_runs);
    size_t pairs = 0;
    for (const auto& p : lin.pairs) {
      pairs += p.size();
    }
    sample->lin_pairs_per_op =
        lin.pairs.empty() ? 0
                          : static_cast<double>(pairs) /
                                static_cast<double>(lin.pairs.size());
  }

  // 5. Replay.
  const chipmunk::LinearizationOracle* lin_ptr = have_lin ? &lin : nullptr;
  chipmunk::ReplayResult replay;
  sample->replay_us = Timed(tracer, "replay", id, [&] {
    replay = chipmunk::ReplayEngine(&config, &options)
                 .Run(trace, base, w, oracle, guarantees, lin_ptr);
  });
  for (const BugReport& r : replay.reports) {
    add_report(r);
  }
  sample->crash_points = static_cast<double>(replay.crash_points);
  sample->crash_states = static_cast<double>(replay.crash_states);
  sample->mounted = static_cast<double>(
      replay.crash_states - replay.states_deduped - replay.states_pruned);
  tracer.Close(root);

  // Outside the stage sum: the same replay without the dedup index (its
  // difference is the hashing cost), and recovery + one check on the final
  // durable image.
  if (options.dedup_index != nullptr) {
    chipmunk::HarnessOptions plain = options;
    plain.dedup_index = nullptr;
    sample->replay_plain_us = Timed(tracer, "replay.no_index", id, [&] {
      (void)chipmunk::ReplayEngine(&config, &plain)
          .Run(trace, base, w, oracle, guarantees, lin_ptr);
    });
  } else {
    sample->replay_plain_us = sample->replay_us;
  }
  std::vector<uint8_t> durable = base;
  std::vector<size_t> pending;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].IsWrite()) {
      pending.push_back(i);
    } else if (trace[i].kind == pmem::PmOpKind::kFence) {
      for (size_t p : pending) {
        pmem::ApplyOp(durable, trace[p]);
      }
      pending.clear();
    }
  }
  {
    pmem::PmDevice image(durable);
    pmem::Pm image_pm(&image);
    std::unique_ptr<vfs::FileSystem> recovered = config.make(&image_pm);
    sample->recovery_mount_us = Timed(tracer, "fs.recovery_mount", id,
                                      [&] { (void)recovered->Mount(); });
  }
  if (!w.ops.empty()) {
    pmem::PmDevice image(std::move(durable));
    pmem::Pm image_pm(&image);
    chipmunk::Checker checker(&config);
    chipmunk::CheckContext ctx;
    ctx.w = &w;
    ctx.oracle = &oracle;
    ctx.lin = lin_ptr;
    ctx.guarantees = guarantees;
    ctx.syscall_index = static_cast<int>(w.ops.size()) - 1;
    ctx.sandbox = &probe_sandbox;
    sample->check_us = Timed(tracer, "checker.check", id, [&] {
      (void)checker.CheckCrashState(image_pm, ctx);
    });
  }

  // TestWorkload releases its media, file system and oracles when it
  // returns; that cost belongs to the stage sum.
  sample->teardown_us = Timed(tracer, "teardown", id, [&] {
    fs.reset();
    pm.reset();
    dev.reset();
    std::vector<uint8_t>().swap(base);
    pmem::Trace().swap(trace);
    oracle = chipmunk::OracleTrace();
    lin = chipmunk::LinearizationOracle();
    replay = chipmunk::ReplayResult();
  });
  return true;
}

// One traced campaign: its target, harness options and committed workloads.
struct TracedCampaign {
  const Target* target = nullptr;
  chipmunk::HarnessOptions harness;
  std::vector<workload::Workload> workloads;
  // fuzz-store-16m: the campaign's equivalence index and each workload's
  // snapshot pin, so the traced harness sees the index the campaign saw.
  std::unique_ptr<store::StateIndex> index;  // StateIndex cannot move
  std::vector<uint64_t> pins;
};

// FuzzEngine that keeps each committed workload (mt-isolation runs without
// a store, and adding one would change corpus admission).
class CapturingFuzzEngine : public fuzz::FuzzEngine {
 public:
  using fuzz::FuzzEngine::FuzzEngine;
  std::vector<workload::Workload>& committed() { return committed_; }

 protected:
  bool DecideAdmission(const Pending& p) const override {
    committed_.push_back(p.w);
    return fuzz::FuzzEngine::DecideAdmission(p);
  }

 private:
  mutable std::vector<workload::Workload> committed_;
};

struct Series {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double P50() const { return Quantile(values, 0.5); }
  double P99() const { return Quantile(values, 0.99); }
  double Mean() const {
    double sum = 0;
    for (double v : values) {
      sum += v;
    }
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
  }
  double Sum() const { return Mean() * static_cast<double>(values.size()); }
};

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(n);
}

}  // namespace

Outcome RunTraced(const Spec& spec, double seconds) {
  Outcome out;
  const double deadline = WallSeconds() + seconds;
  const std::string dir = WorkDir() + "/" + spec.name + "-traced";
  if (!FreshDir(dir)) {
    out.problems.push_back("cannot create " + dir);
    out.correct = false;
    return out;
  }

  // --- 1. Campaign pass ----------------------------------------------------
  Series commit_gap_ms, append_us, checkpoint_ms, load_ms;
  double cpu = 0, wall_x_jobs = 0, corpus = 0, coverage = 0;
  double store_bytes = 0, store_workloads = 0, index_entries = 0;
  std::vector<TracedCampaign> traced;
  std::vector<std::vector<fuzz::CampaignResult>> results(spec.targets.size());
  for (size_t i = 0; i < spec.campaigns * spec.targets.size(); ++i) {
    const size_t c = i / spec.targets.size();
    const size_t t = i % spec.targets.size();
    const Target& target = spec.targets[t];
    traced.emplace_back();
    TracedCampaign& tt = traced.back();
    tt.target = &target;
    const std::string store_dir =
        dir + "/" + target.label + "-" + std::to_string(c);
    fuzz::CampaignOptions options =
        CampaignOptionsFor(spec, t, c, store_dir);
    double last_commit = WallSeconds();
    options.on_commit = [&](uint64_t, uint64_t, uint64_t) {
      const double now = WallSeconds();
      commit_gap_ms.Add((now - last_commit) * 1e3);
      last_commit = now;
    };
    if (spec.kind == Kind::kFuzzStore) {
      // Keep every commit in the log so the workloads can be read back.
      options.checkpoint_interval = 0;
      options.final_checkpoint = false;
    }
    tt.harness = options.harness;
    tt.harness.lint = options.lint;

    std::unique_ptr<fuzz::CampaignDriver> engine;
    CapturingFuzzEngine* capture = nullptr;
    if (spec.kind == Kind::kMtIsolation) {
      auto owned = std::make_unique<CapturingFuzzEngine>(target.config,
                                                         options);
      capture = owned.get();
      engine = std::move(owned);
    } else {
      engine = MakeEngine(spec, t, options);
    }
    common::Status opened = engine->OpenCampaign();
    if (!opened.ok()) {
      out.problems.push_back(target.label + ": " + opened.ToString());
      continue;
    }
    last_commit = WallSeconds();
    const fuzz::CampaignResult& result =
        results[t].emplace_back(engine->Run());
    out.attempted += result.executed;
    out.failed += result.replay_retries;
    cpu += result.cpu_seconds;
    wall_x_jobs += result.wall_seconds * static_cast<double>(options.jobs);
    corpus += static_cast<double>(result.corpus_size);
    coverage += static_cast<double>(result.coverage_points);
    if (capture != nullptr) {
      tt.workloads = std::move(capture->committed());
    }
    engine.reset();  // closes the store

    switch (spec.kind) {
      case Kind::kAce: {
        const workload::AceEnumerator enumerator(AceSeq2());
        for (uint64_t ordinal : spec.ace_ordinals) {
          tt.workloads.push_back(enumerator.At(ordinal));
        }
        break;
      }
      case Kind::kMtIsolation:
        break;  // captured above
      case Kind::kFuzzStore: {
        const double l0 = WallSeconds();
        auto loaded = store::CampaignStore::Load(store_dir);
        load_ms.Add((WallSeconds() - l0) * 1e3);
        if (!loaded.ok()) {
          out.problems.push_back(target.label +
                                 ": Load: " + loaded.status().ToString());
          break;
        }
        tt.index = std::make_unique<store::StateIndex>();
        for (size_t k = 0; k < loaded->log.size(); ++k) {
          const store::CommitRecord& rec = loaded->log[k];
          auto w = workload::ParseWorkload(rec.workload_text,
                                           rec.workload_name);
          if (!w.ok()) {
            out.problems.push_back(target.label + ": ParseWorkload: " +
                                   w.status().ToString());
            break;
          }
          tt.workloads.push_back(std::move(w).value());
          tt.pins.push_back(k < options.lookahead ? 0
                                                  : k - options.lookahead + 1);
          for (uint64_t h : rec.clean_hashes) {
            tt.index->Insert(h, k + 1);  // as the commit barrier does
          }
        }
        store_bytes += FileBytes(store_dir + "/log.bin");
        store_workloads += static_cast<double>(loaded->log.size());
        index_entries += static_cast<double>(tt.index->size());
        // Append and checkpoint the same records into a fresh store.
        const std::string copy_dir = store_dir + "-copy";
        auto copy = store::CampaignStore::Create(copy_dir, loaded->meta);
        if (!copy.ok()) {
          out.problems.push_back(target.label +
                                 ": Create: " + copy.status().ToString());
          break;
        }
        for (const store::CommitRecord& rec : loaded->log) {
          const double a0 = WallSeconds();
          common::Status s = (*copy)->AppendCommit(rec);
          append_us.Add((WallSeconds() - a0) * 1e6);
          if (!s.ok()) {
            out.problems.push_back(target.label + ": AppendCommit: " +
                                   s.ToString());
            break;
          }
        }
        const store::CampaignState state = fuzz::FoldCampaign(*loaded);
        const double c0 = WallSeconds();
        common::Status s =
            (*copy)->WriteCheckpoint(state, tt.index->Entries());
        checkpoint_ms.Add((WallSeconds() - c0) * 1e3);
        if (!s.ok()) {
          out.problems.push_back(target.label + ": WriteCheckpoint: " +
                                 s.ToString());
        }
        break;
      }
    }
  }
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    CheckReports(spec.targets[t], results[t], &out.problems);
  }

  // --- 2. Rebuilt harness, round-robin over campaigns until the deadline --
  Tracer tracer;
  std::vector<Sample> samples;
  std::vector<std::string> gaps;
  common::CoverageMap cov;
  common::CoverageMap* prev_cov = common::CoverageMap::Current();
  common::CoverageMap::Current() = &cov;
  uint64_t id = 0;
  for (size_t k = 0; out.problems.empty(); ++k) {
    bool any = false;
    for (TracedCampaign& tt : traced) {
      if (k >= tt.workloads.size()) {
        continue;
      }
      any = true;
      const workload::Workload& w = tt.workloads[k];
      chipmunk::HarnessOptions options = tt.harness;
      std::optional<store::StateIndexSnapshot> snapshot;
      if (tt.index != nullptr) {
        snapshot.emplace(tt.index.get(), tt.pins[k]);
        options.dedup_index = &*snapshot;
      }
      Sample sample;
      std::set<std::string> signatures;
      std::string error;
      // Each timed run directly follows a TestWorkload of the same
      // workload, so both find the heap as a campaign worker leaves it.
      // Otherwise one of them faults in pages the other reuses, which on
      // 16 MiB devices alone moves a workload's time by about 10%.
      (void)chipmunk::Harness(tt.target->config, options).TestWorkload(w);
      const double h0 = WallSeconds();
      auto stats =
          chipmunk::Harness(tt.target->config, options).TestWorkload(w);
      sample.harness_us = (WallSeconds() - h0) * 1e6;
      const bool ok = RebuiltHarness(tt.target->config, options, w, id++,
                                     tracer, &sample, &signatures, &error);
      std::set<std::string> expected;
      if (stats.ok()) {
        for (const chipmunk::BugReport& r : stats->reports) {
          expected.insert(r.Signature());
        }
      }
      const std::string where = tt.target->label + " " + w.name;
      if (ok != stats.ok()) {
        gaps.push_back(where + ": rebuilt pipeline " +
                       (ok ? "succeeded" : "failed (" + error + ")") +
                       ", TestWorkload " +
                       (stats.ok() ? "succeeded" : "failed"));
      } else if (ok && (static_cast<size_t>(sample.crash_states) !=
                            stats->crash_states ||
                        signatures != expected)) {
        const auto states = static_cast<size_t>(sample.crash_states);
        gaps.push_back(where + ": rebuilt pipeline saw " +
                       std::to_string(states) + " states / " +
                       std::to_string(signatures.size()) +
                       " signatures, TestWorkload " +
                       std::to_string(stats->crash_states) + " / " +
                       std::to_string(expected.size()));
      }
      if (ok) {
        samples.push_back(sample);
      }
    }
    if (!any || (WallSeconds() >= deadline && k > 0)) {
      break;
    }
  }
  common::CoverageMap::Current() = prev_cov;
  for (const std::string& gap : gaps) {
    out.problems.push_back("cross-check: " + gap);
  }

  // --- 3. Metrics ------------------------------------------------------------
  Series mkfs_mount, snapshot, run, recovery_mount, oracle_us, lin_us,
      lint_us, hb_us, replay_us, replay_per_state, dedup_hash, check_us,
      harness_us, trace_ops, fences, nt_bytes, oracle_snapshots, lin_images,
      lin_image_runs, lin_pairs, findings, crash_points;
  double stage_sum = 0, harness_sum = 0, mounted = 0, visited = 0;
  std::map<std::string, double> stage_totals;
  for (const Sample& s : samples) {
    mkfs_mount.Add(s.mkfs_mount_us);
    snapshot.Add(s.snapshot_us);
    run.Add(s.run_us);
    recovery_mount.Add(s.recovery_mount_us);
    oracle_us.Add(s.oracle_us);
    lin_us.Add(s.lin_us);
    lint_us.Add(s.lint_us);
    hb_us.Add(s.hb_us);
    replay_us.Add(s.replay_us);
    if (s.crash_states > 0) {
      replay_per_state.Add(s.replay_us / s.crash_states);
    }
    dedup_hash.Add(s.replay_us - s.replay_plain_us);
    check_us.Add(s.check_us);
    harness_us.Add(s.harness_us);
    trace_ops.Add(s.trace_ops);
    fences.Add(s.fences);
    nt_bytes.Add(s.nt_bytes);
    oracle_snapshots.Add(s.oracle_snapshots);
    lin_images.Add(s.lin_images);
    lin_image_runs.Add(s.lin_image_runs);
    lin_pairs.Add(s.lin_pairs_per_op);
    findings.Add(s.findings);
    crash_points.Add(s.crash_points);
    stage_sum += s.StageSum();
    harness_sum += s.harness_us;
    mounted += s.mounted;
    visited += s.crash_states;
    stage_totals["record: device + fs.mkfs_mount"] +=
        s.record_us - s.snapshot_us - s.run_us;
    stage_totals["record: pmem.snapshot"] += s.snapshot_us;
    stage_totals["record: record.run"] += s.run_us;
    stage_totals["probe"] += s.probe_us;
    stage_totals["oracle"] += s.oracle_us;
    stage_totals["analysis.lint"] += s.lint_us;
    stage_totals["analysis.hb"] += s.hb_us;
    stage_totals["lin"] += s.lin_us;
    stage_totals["replay: dedup hashing"] += s.replay_us - s.replay_plain_us;
    stage_totals["replay: without index"] += s.replay_plain_us;
    stage_totals["teardown"] += s.teardown_us;
  }
  const double coverage_ratio = harness_sum > 0 ? stage_sum / harness_sum : 0;
  std::printf("traced %zu workloads; stage sum %.3f s of harness %.3f s "
              "(coverage %.4f)\n",
              samples.size(), stage_sum * 1e-6, harness_sum * 1e-6,
              coverage_ratio);
  for (const auto& [stage, us] : stage_totals) {
    std::printf("  %-34s %9.3f s  %6.2f%% of harness\n", stage.c_str(),
                us * 1e-6, harness_sum > 0 ? 100.0 * us / harness_sum : 0);
  }
  if (samples.empty()) {
    out.problems.push_back("no workload was traced");
  } else if (coverage_ratio < 0.95 || coverage_ratio > 1.05) {
    // Reported, not fatal: the gap is a measurement of the rebuild itself.
    std::printf("NOTE: stage sum is not within 5%% of TestWorkload time\n");
  }
  const std::string trace_path =
      dir + "-" + std::to_string(spec.seed) + ".trace.json";
  if (tracer.WriteChrome(trace_path)) {
    std::printf("spans written to %s\n", trace_path.c_str());
  }
  RemoveDir(dir);

  const double util = wall_x_jobs > 0 ? cpu / wall_x_jobs : 0;
  auto timing = [&](const std::string& name, const Series& s,
                    const std::string& unit) {
    out.metrics.push_back({name, s.P50(), unit});
    out.metrics.push_back({name + ".p99", s.P99(), unit});
  };
  auto mean = [&](const std::string& name, const Series& s,
                  const std::string& unit) {
    out.metrics.push_back({name, s.Mean(), unit});
  };
  mean("pmem.trace_ops", trace_ops, "count");
  mean("pmem.fences", fences, "count");
  mean("pmem.nt_bytes", nt_bytes, "bytes");
  timing("pmem.snapshot_us", snapshot, "us");
  timing("fs.mkfs_mount_us", mkfs_mount, "us");
  timing("record.run_us", run, "us");
  timing("fs.recovery_mount_us", recovery_mount, "us");
  timing("oracle.us", oracle_us, "us");
  mean("oracle.snapshots", oracle_snapshots, "count");
  timing("lin.us", lin_us, "us");
  mean("lin.images", lin_images, "count");
  mean("lin.image_runs", lin_image_runs, "count");
  mean("lin.pairs_per_op", lin_pairs, "count");
  timing("analysis.lint_us", lint_us, "us");
  timing("analysis.hb_us", hb_us, "us");
  mean("analysis.findings", findings, "count");
  timing("replay.us", replay_us, "us");
  timing("replay.us_per_state", replay_per_state, "us");
  mean("replay.crash_points", crash_points, "count");
  out.metrics.push_back(
      {"replay.mounted_ratio", visited > 0 ? mounted / visited : 0, "ratio"});
  timing("replay.dedup_hash_us", dedup_hash, "us");
  timing("checker.check_us", check_us, "us");
  timing("harness.us", harness_us, "us");
  out.metrics.push_back({"trace.coverage", coverage_ratio, "ratio"});
  out.metrics.push_back(
      {"trace.replay_share",
       harness_sum > 0 ? replay_us.Sum() / harness_sum : 0, "ratio"});
  out.metrics.push_back(
      {"trace.samples", static_cast<double>(samples.size()), "count"});
  out.metrics.push_back({"fuzz.worker_util", util, "ratio"});
  timing("fuzz.commit_gap_ms", commit_gap_ms, "ms");
  out.metrics.push_back({"fuzz.corpus_size", corpus, "count"});
  out.metrics.push_back({"fuzz.coverage_points", coverage, "count"});
  timing("store.append_us", append_us, "us");
  out.metrics.push_back({"store.checkpoint_ms", checkpoint_ms.P50(), "ms"});
  out.metrics.push_back({"store.load_ms", load_ms.P50(), "ms"});
  out.metrics.push_back(
      {"store.bytes_per_workload",
       store_workloads > 0 ? store_bytes / store_workloads : 0, "bytes"});
  out.metrics.push_back({"store.index_entries", index_entries, "count"});
  out.correct = out.problems.empty() && out.attempted > 0;
  return out;
}

}  // namespace perfbench
