// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR]
//
// Human-readable lines come first; the last line of standard output is
// the result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are every end-to-end metric (each workload reports
// all of them), with --trace 1 every per-layer metric. The exit code is 0 only when every
// output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload pqd_hold|lib_uniform|sim_fig4"
               " --seed N --seconds S --trace 0|1 [--spans-dir DIR]\n";
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !val.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.trace = val == "1";
      have_trace = true;
    } else if (arg == "--spans-dir") {
      opt.spans_dir = val;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(workload, opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const perfbench::Metric& m : out.metrics.all())
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : out.metrics.all()) {
    if (!first) line += ", ";
    first = false;
    line += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return out.correct && out.failed == 0 ? 0 : 1;
}
