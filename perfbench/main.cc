// chipmunk_perfbench: one workload, one seed, one run.
//
//   chipmunk_perfbench --workload ace-seq2|fuzz-store-16m|mt-isolation
//                      --seed N --seconds S --trace 0|1
//                      [--short] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics of a timed run, --trace 1 the
// per-layer metrics of a traced run. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// output gate held, 1 when one failed (the JSON says correct: false), 2 on a
// usage error (no JSON).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "chipmunk_perfbench: %s\n"
               "usage: chipmunk_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--short] [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Shortest decimal form that reads back as the same double.
std::string Number(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
    }
    q += c;
  }
  return q + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool short_mode = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      short_mode = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = ParseU64(value, &seed);
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &seconds) || seconds == 0) {
        return Usage("--seconds must be a positive integer");
      }
    } else if (flag == "--trace") {
      if (!ParseU64(value, &trace) || trace > 1) {
        return Usage("--trace must be 0 or 1");
      }
    } else if (flag == "--work-dir") {
      perfbench::SetWorkDir(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace > 1) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  perfbench::Spec spec;
  if (!perfbench::MakeSpec(workload, seed, short_mode, &spec)) {
    return Usage(("unknown workload " + workload).c_str());
  }

  std::printf("workload %s, seed %llu, %s run of %llu s\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "timed",
              static_cast<unsigned long long>(seconds));
  const perfbench::Outcome out =
      trace ? perfbench::RunTraced(spec, static_cast<double>(seconds))
            : perfbench::RunTimed(spec, static_cast<double>(seconds));
  for (const std::string& problem : out.problems) {
    std::printf("GATE FAILED: %s\n", problem.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    json += (i == 0 ? "" : ", ") + Quote(m.name) + ": {\"value\": " +
            Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
